# Runs a command and fails unless it exits with EXPECT_EXIT and, when
# EXPECT_OUTPUT is set, prints (to stdout or stderr) text matching it.
#
#   cmake -DEXPECT_EXIT=<code> [-DEXPECT_OUTPUT=<regex>] \
#         -P expect_exit.cmake -- <command> [args...]
set(cmd)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(collect ON)
  endif()
endforeach()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(JOIN " " shown ${cmd})
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
          "'${shown}' exited ${code}, expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR
          "'${shown}' output does not match '${EXPECT_OUTPUT}'\n${out}${err}")
endif()
