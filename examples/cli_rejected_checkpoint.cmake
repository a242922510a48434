# Runs `pmrl_cli ${CMD}` on damaged persisted state and requires exit status
# 1 with a rejection message and no results: a rejected checkpoint or
# registry pointer stops the command instead of evaluating, serving or
# training from a fresh-init policy. With DAMAGE `missing` (no file at the
# path), `truncated` (the first 3000 bytes of the checkpoint ${SRC}) or
# `garbage` (a file that is not a checkpoint at all), CMD is `eval` or
# `serve` on that checkpoint. With DAMAGE `current`, ${SRC} is a registry
# and CMD (`serve`, `train` or `policy`) runs on a copy of it whose CURRENT
# pointer fails its CRC. A command still running at the timeout, such as a
# server that started anyway, fails the test.
set(bad ${OUT}/cli_${CMD}_${DAMAGE}.pmrl)
set(what "a ${DAMAGE} checkpoint")
set(want "rejected")
file(REMOVE_RECURSE ${bad})
if(DAMAGE STREQUAL "truncated")
  file(READ ${SRC} content LIMIT 3000)
  file(WRITE ${bad} "${content}")
elseif(DAMAGE STREQUAL "garbage")
  file(WRITE ${bad} "this is not a policy checkpoint\n0.1,0.2,0.3\n")
elseif(DAMAGE STREQUAL "current")
  file(COPY ${SRC}/ DESTINATION ${bad}
       FILES_MATCHING PATTERN "v*.policy" PATTERN "v*.meta")
  file(WRITE ${bad}/CURRENT "1\ncrc32,00000000\n")
  set(what "a corrupt registry CURRENT")
  set(want "CURRENT.* corrupt")
elseif(NOT DAMAGE STREQUAL "missing")
  message(FATAL_ERROR "unknown DAMAGE '${DAMAGE}'")
endif()
if(DAMAGE STREQUAL "current")
  if(CMD STREQUAL "serve")
    set(args serve --registry ${bad} --tcp-port 0)
  elseif(CMD STREQUAL "train")
    set(args train --episodes 1 --registry ${bad} --out ${bad}/out.pmrl)
  elseif(CMD STREQUAL "policy")
    set(args policy list --registry ${bad})
  else()
    message(FATAL_ERROR "unknown CMD '${CMD}'")
  endif()
elseif(CMD STREQUAL "eval")
  set(args eval ${bad} --scenario game --duration 1)
elseif(CMD STREQUAL "serve")
  set(args serve --policy ${bad} --tcp-port 0)
else()
  message(FATAL_ERROR "unknown CMD '${CMD}'")
endif()
execute_process(COMMAND ${CLI} ${args} TIMEOUT 10
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${CMD} of ${what}: exit ${rc}, want 1\n"
                      "${out}${err}")
endif()
if(out MATCHES "E/QoS|listening|training|registered")
  message(FATAL_ERROR "${CMD} of ${what} went on to run\n${out}")
endif()
if(NOT err MATCHES "${want}")
  message(FATAL_ERROR "${CMD} of ${what}: no rejection\n${err}")
endif()
