# Runs `pmrl_cli eval` on a damaged copy of the checkpoint ${SRC} and
# requires exit status 1 with no results table: a rejected checkpoint stops
# the command instead of evaluating a fresh-init policy. DAMAGE is
# `truncated` (the first 3000 bytes of ${SRC}) or `garbage` (a file that is
# not a checkpoint at all).
if(DAMAGE STREQUAL "truncated")
  file(READ ${SRC} content LIMIT 3000)
elseif(DAMAGE STREQUAL "garbage")
  set(content "this is not a policy checkpoint\n0.1,0.2,0.3\n")
else()
  message(FATAL_ERROR "unknown DAMAGE '${DAMAGE}'")
endif()
set(bad ${OUT}/cli_eval_${DAMAGE}.pmrl)
file(WRITE ${bad} "${content}")
execute_process(COMMAND ${CLI} eval ${bad} --scenario game --duration 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "eval of a ${DAMAGE} checkpoint: exit ${rc}, want 1\n"
                      "${out}${err}")
endif()
if(out MATCHES "E/QoS")
  message(FATAL_ERROR "eval of a ${DAMAGE} checkpoint printed results\n${out}")
endif()
if(NOT err MATCHES "rejected")
  message(FATAL_ERROR "eval of a ${DAMAGE} checkpoint: no rejection\n${err}")
endif()
