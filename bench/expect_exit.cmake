# Runs CMD with the space-separated ARGS and fails unless it exits with
# status EXPECT. Used by the bench flag-parsing ctest cases:
#   cmake -DCMD=<binary> "-DARGS=<flags>" -DEXPECT=<status> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${status}, expected ${EXPECT}\n"
                      "${out}${err}")
endif()
