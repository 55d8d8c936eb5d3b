# Run graphite_cli once and require exit 0, "coherence : clean" on
# stdout and no lockdep report on stderr.
#
#   cmake -DCLI=path/to/graphite_cli "-DARGS=--workload;fft;--tiles;64"
#         -P cli_smoke.cmake
execute_process(COMMAND ${CLI} ${ARGS}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "graphite_cli exited with ${rc}")
endif()
if(NOT out MATCHES "coherence +: clean")
    message(FATAL_ERROR "no 'coherence : clean' line")
endif()
if(err MATCHES "lockdep")
    message(FATAL_ERROR "lockdep reported a problem")
endif()
