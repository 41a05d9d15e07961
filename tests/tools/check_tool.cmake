# Run one command of the LLVA tools and check how it ends:
#
#   cmake -DTOOL=<llva-tools> -DSTATUS=<exit status> -DMATCH=<regex>
#         -P check_tool.cmake -- <tool> <arguments...>
#
# The command must exit with exactly STATUS (a crash reports a signal
# name instead, which never matches), and its stdout and stderr
# together must match MATCH.

set(args)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND args "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()

execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(output "${out}${err}")
if(NOT status STREQUAL STATUS)
    message(FATAL_ERROR
        "'${args}' ended with '${status}', expected ${STATUS}:\n${output}")
endif()
if(NOT output MATCHES "${MATCH}")
    message(FATAL_ERROR
        "'${args}' output does not match '${MATCH}':\n${output}")
endif()
