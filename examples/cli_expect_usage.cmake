# Runs `pmrl_cli ${ARGS}` and requires exit status 2 with the usage text on
# stderr: the CLI's contract for a malformed flag value or positional. (A
# plain WILL_FAIL test would also pass on exit 1, an unhandled error.)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "pmrl_cli ${ARGS}: exit ${rc}, want 2\n${err}")
endif()
if(NOT err MATCHES "usage: pmrl_cli")
  message(FATAL_ERROR "pmrl_cli ${ARGS}: no usage text\n${err}")
endif()
