# Run a command; pass only when it exits with EXPECT_RC and its stderr
# matches the regex EXPECT_STDERR.  CTest's own PASS_REGULAR_EXPRESSION
# ignores the exit status, so it cannot tell "rejected with exit 2" from
# a crash that happens to print the same text.
#
#   cmake -DEXPECT_RC=2 -DEXPECT_STDERR=<regex> -P expect_exit.cmake \
#         -- <command> [args...]
set(cmd "")
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_RC}\n"
                      "stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
