# Run graphite_cli once and require exit 0, "coherence : clean" on
# stdout and no lockdep report on stderr. With -DMAX_RSS_MB=N (ARGS
# must then include --self-profile), also require the reported
# "peak rss : X MB" to be at most N.
#
#   cmake -DCLI=path/to/graphite_cli "-DARGS=--workload;fft;--tiles;64"
#         [-DMAX_RSS_MB=512] -P cli_smoke.cmake
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
if(DEFINED MAX_RSS_MB)
    if(NOT out MATCHES "peak rss +: ([0-9]+)")
        message(FATAL_ERROR "no 'peak rss' line (pass --self-profile)")
    endif()
    if(CMAKE_MATCH_1 GREATER MAX_RSS_MB)
        message(FATAL_ERROR
            "peak RSS ${CMAKE_MATCH_1} MB exceeds ${MAX_RSS_MB} MB")
    endif()
endif()
