# ctest gate: at encryption ratio 1.0 the plan leaves no weight row
# plaintext, so the three injections that corrupt such a row (layout-align,
# layout-account, audit-boundary) must be skipped, not abort the ledger.
# VGG-16 also skips plan-residual (no identity blocks). The run must exit 0,
# print one `skip` line per skipped row, and account for every injection.
# Invoked as:
#   cmake -DCHECK_BIN=<path> -DOUT_DIR=<dir> -P check_inject_ratio_one.cmake
cmake_minimum_required(VERSION 3.19)
if(NOT DEFINED CHECK_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DCHECK_BIN=... -DOUT_DIR=... -P check_inject_ratio_one.cmake")
endif()

execute_process(
  COMMAND ${CHECK_BIN} --workload vgg16 --ratio 1.0 --inject all
          --json ${OUT_DIR}/inject_ratio_one.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sealdl-check --ratio 1.0 --inject all failed (rc=${rc}): ${err}")
endif()

foreach(name layout-align layout-account audit-boundary)
  if(NOT out MATCHES "\nskip +${name} +\\(no plaintext weight row in the plan\\)")
    message(FATAL_ERROR "expected a skip line for ${name} at ratio 1.0:\n${out}")
  endif()
endforeach()
string(REGEX MATCHALL "(^|\n)skip " skip_lines "${out}")
list(LENGTH skip_lines skip_count)

file(READ ${OUT_DIR}/inject_ratio_one.json ledger)
foreach(field total exercised skipped missed)
  if(NOT ledger MATCHES "\"${field}\":([0-9]+)")
    message(FATAL_ERROR "inject ledger JSON lacks the \"${field}\" field")
  endif()
  set(${field} ${CMAKE_MATCH_1})
endforeach()
math(EXPR accounted "${exercised} + ${skipped}")
if(NOT accounted EQUAL total OR NOT missed EQUAL 0)
  message(FATAL_ERROR "ledger broken: ${exercised} exercised + ${skipped} skipped, ${total} total, ${missed} missed")
endif()
if(NOT skipped EQUAL 4 OR NOT skip_count EQUAL 4)
  message(FATAL_ERROR "expected 4 skipped (3 plain-row + plan-residual), ledger ${skipped}, stdout ${skip_count}")
endif()
message(STATUS "ratio-1.0 ledger OK: ${exercised} exercised + ${skipped} skipped == ${total} total")
