# Analyze golden: regenerates one seeded telemetry sweep cell (two GC
# T4s in us-central1 and two in europe-west1, the builtin partition
# pack, 0.5 sim-h) and checks that `hivesim analyze --metrics` prints
# the committed table and writes the committed analysis.json, byte for
# byte. If a change to the analyzer's output is intentional, copy
# WORK_DIR/analysis.{json,txt} of a run over the goldens and review the
# diff. Run by ctest (cli_analyze_golden), or by hand:
#
#   cmake -DHIVESIM=<path to hivesim> -DGOLDEN_DIR=tests/golden
#         -DWORK_DIR=<work dir> -P tests/analyze_golden.cmake

set(cell gc_us_2_gc_eu_2_conv_tbs32768_seed1_partition)
set(golden ${GOLDEN_DIR}/analyze_gc2_eu2_partition)

file(REMOVE_RECURSE ${WORK_DIR})
execute_process(
  COMMAND ${HIVESIM} sweep --fleets gc-us:2,gc-eu:2 --chaos partition
          --hours 0.5 --telemetry --out=${WORK_DIR}/cell
  OUTPUT_QUIET RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "hivesim sweep failed (${status})")
endif()
execute_process(
  COMMAND ${HIVESIM} analyze --trace=${WORK_DIR}/cell/runs/${cell}.trace.json
          --metrics=${WORK_DIR}/cell/runs/${cell}.metrics.json
          --out=${WORK_DIR}/analysis.json
  OUTPUT_FILE ${WORK_DIR}/analysis.txt RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "hivesim analyze failed (${status})")
endif()
foreach(ext json txt)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${golden}.${ext}
            ${WORK_DIR}/analysis.${ext}
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "analysis.${ext} drifted from ${golden}.${ext}")
  endif()
endforeach()
