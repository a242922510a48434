# Runs `pmrl_cli ${CMD}` on a damaged copy of the checkpoint ${SRC} and
# requires exit status 1 with a rejection message and no results: a
# rejected checkpoint stops the command instead of evaluating or serving a
# fresh-init policy. CMD is `eval` or `serve`. DAMAGE is `missing` (no file
# at the path), `truncated` (the first 3000 bytes of ${SRC}) or `garbage` (a
# file that is not a checkpoint at all). A command still running at the
# timeout, such as a server that started anyway, fails the test.
set(bad ${OUT}/cli_${CMD}_${DAMAGE}.pmrl)
file(REMOVE ${bad})
if(DAMAGE STREQUAL "truncated")
  file(READ ${SRC} content LIMIT 3000)
  file(WRITE ${bad} "${content}")
elseif(DAMAGE STREQUAL "garbage")
  file(WRITE ${bad} "this is not a policy checkpoint\n0.1,0.2,0.3\n")
elseif(NOT DAMAGE STREQUAL "missing")
  message(FATAL_ERROR "unknown DAMAGE '${DAMAGE}'")
endif()
if(CMD STREQUAL "eval")
  set(args eval ${bad} --scenario game --duration 1)
elseif(CMD STREQUAL "serve")
  set(args serve --policy ${bad} --tcp-port 0)
else()
  message(FATAL_ERROR "unknown CMD '${CMD}'")
endif()
execute_process(COMMAND ${CLI} ${args} TIMEOUT 10
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${CMD} of a ${DAMAGE} checkpoint: exit ${rc}, want 1\n"
                      "${out}${err}")
endif()
if(out MATCHES "E/QoS|listening")
  message(FATAL_ERROR "${CMD} of a ${DAMAGE} checkpoint went on to run\n${out}")
endif()
if(NOT err MATCHES "rejected")
  message(FATAL_ERROR "${CMD} of a ${DAMAGE} checkpoint: no rejection\n${err}")
endif()
