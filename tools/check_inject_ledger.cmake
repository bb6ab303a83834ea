# ctest gate: `sealdl-check --inject all --json` and `sealdl-sim
# --inject-scheme all --inject-scheme-json` must account for every injection —
# exercised + skipped == total, nothing missed — so CI can prove no injection
# silently fell out of either self-test loop. The four retired secure-*
# injections are mapped to the scheme.* rules their successors must fire.
# Invoked as:
#   cmake -DCHECK_BIN=<path> -DSIM_BIN=<path> -DOUT_DIR=<dir> -P check_inject_ledger.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
if(NOT DEFINED CHECK_BIN OR NOT DEFINED SIM_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DCHECK_BIN=... -DSIM_BIN=... -DOUT_DIR=... -P check_inject_ledger.cmake")
endif()

# VGG-16 has no residual topology, so exactly the plan-residual injection is
# skipped — this pins both the skip path and its JSON accounting.
execute_process(
  COMMAND ${CHECK_BIN} --workload vgg16 --inject all
          --json ${OUT_DIR}/inject_ledger.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sealdl-check --inject all failed (rc=${rc})")
endif()

file(READ ${OUT_DIR}/inject_ledger.json ledger)
foreach(field total exercised skipped missed)
  if(NOT ledger MATCHES "\"${field}\":([0-9]+)")
    message(FATAL_ERROR "inject ledger JSON lacks the \"${field}\" field")
  endif()
  set(${field} ${CMAKE_MATCH_1})
endforeach()

math(EXPR accounted "${exercised} + ${skipped}")
if(NOT accounted EQUAL total)
  message(FATAL_ERROR "injection accounting broken: ${exercised} exercised + ${skipped} skipped != ${total} total")
endif()
if(NOT missed EQUAL 0)
  message(FATAL_ERROR "${missed} injection(s) missed")
endif()
if(NOT skipped EQUAL 1 OR NOT ledger MATCHES "\"name\":\"plan-residual\",\"status\":\"skipped\"")
  message(FATAL_ERROR "expected exactly plan-residual to be skipped on vgg16 (skipped=${skipped})")
endif()
message(STATUS "inject ledger OK: ${exercised} exercised + ${skipped} skipped == ${total} total, 0 missed")

# The security rules were once a separate secure.* family with its own four
# injections; it was folded into scheme.*. Old injection -> new injection ->
# the scheme.* rule it must fire. The catalog pins each new injection's
# declared rule and retires the old name; "caught" in the ledger above means
# every declared rule fired — together, each old injection still fires its
# mapped rule.
set(audit_injection_map
  "secure-leak:audit-leak:scheme.wire"
  "secure-boundary:audit-boundary:scheme.boundary"
  "secure-counter:audit-counter:scheme.metadata"
  "secure-oracle:audit-oracle:scheme.oracle")
execute_process(
  COMMAND ${CHECK_BIN} --list-rules --json ${OUT_DIR}/inject_ledger_catalog.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sealdl-check --list-rules --json failed (rc=${rc})")
endif()
file(READ ${OUT_DIR}/inject_ledger_catalog.json catalog)
string(JSON inject_count LENGTH "${catalog}" injections)
math(EXPR inject_last "${inject_count} - 1")
foreach(mapping IN LISTS audit_injection_map)
  string(REPLACE ":" ";" mapping "${mapping}")
  list(GET mapping 0 old_name)
  list(GET mapping 1 new_name)
  list(GET mapping 2 rule)
  set(fires "")
  foreach(i RANGE ${inject_last})
    string(JSON name GET "${catalog}" injections ${i} name)
    if(name STREQUAL old_name)
      message(FATAL_ERROR "retired injection ${old_name} is still in the catalog")
    endif()
    if(name STREQUAL new_name)
      string(JSON fires GET "${catalog}" injections ${i} fires)
    endif()
  endforeach()
  if(NOT fires STREQUAL "[ \"${rule}\" ]" AND NOT fires STREQUAL "[\"${rule}\"]")
    message(FATAL_ERROR "${old_name} -> ${new_name} must declare exactly ${rule}, catalog says ${fires}")
  endif()
  if(NOT ledger MATCHES "\"name\":\"${new_name}\",\"status\":\"caught\"")
    message(FATAL_ERROR "${old_name} -> ${new_name} did not fire ${rule} on vgg16")
  endif()
  message(STATUS "${old_name} -> ${new_name} fires ${rule}")
endforeach()

# Same accounting for the scheme.* self-test loop. Baseline pins the skip
# path: with no must-cipher lines under scope none, exactly the wire and
# boundary corruptions have nothing to violate.
execute_process(
  COMMAND ${SIM_BIN} --workload resnet18 --input 64 --tiles 24
          --scheme baseline --inject-scheme all
          --inject-scheme-json ${OUT_DIR}/inject_scheme_ledger.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sealdl-sim --inject-scheme all failed (rc=${rc})")
endif()

file(READ ${OUT_DIR}/inject_scheme_ledger.json scheme_ledger)
foreach(field total exercised skipped missed)
  if(NOT scheme_ledger MATCHES "\"${field}\":([0-9]+)")
    message(FATAL_ERROR "inject-scheme ledger JSON lacks the \"${field}\" field")
  endif()
  set(${field} ${CMAKE_MATCH_1})
endforeach()

math(EXPR accounted "${exercised} + ${skipped}")
if(NOT accounted EQUAL total)
  message(FATAL_ERROR "scheme injection accounting broken: ${exercised} exercised + ${skipped} skipped != ${total} total")
endif()
if(NOT missed EQUAL 0)
  message(FATAL_ERROR "${missed} scheme injection(s) missed")
endif()
if(NOT skipped EQUAL 2
   OR NOT scheme_ledger MATCHES "\"name\":\"scheme-wire\",\"status\":\"skipped\""
   OR NOT scheme_ledger MATCHES "\"name\":\"scheme-boundary\",\"status\":\"skipped\"")
  message(FATAL_ERROR "expected exactly scheme-wire and scheme-boundary to be skipped on baseline (skipped=${skipped})")
endif()
message(STATUS "inject-scheme ledger OK: ${exercised} exercised + ${skipped} skipped == ${total} total, 0 missed")
