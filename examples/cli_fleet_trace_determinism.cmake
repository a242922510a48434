# Runs a budgeted `pmrl_cli fleet` at --jobs 1/2/4 with identical seeds and
# asserts the --trace epoch series (6 digits) and the --metrics JSON
# (17-digit totals) are byte-identical — the fleet's any-jobs determinism
# contract, checked end to end through the CLI with a cap that binds. 250
# devices per block gives 12 blocks, so the workers really share the fleet,
# and a two-device tail per block.
foreach(jobs 1 2 4)
  execute_process(
    COMMAND ${CLI} fleet --devices 3000 --block 250 --duration 3 --jobs ${jobs}
            --budget 2400 --budget-step 1:1800
            --trace ${OUT}/cli_fleet_det_j${jobs}.csv
            --metrics ${OUT}/cli_fleet_det_j${jobs}.json
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pmrl_cli fleet --jobs ${jobs} failed (${rc})")
  endif()
endforeach()
foreach(jobs 2 4)
  foreach(ext csv json)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${OUT}/cli_fleet_det_j1.${ext} ${OUT}/cli_fleet_det_j${jobs}.${ext}
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "fleet .${ext} output differs between --jobs 1 and --jobs ${jobs}")
    endif()
  endforeach()
endforeach()
