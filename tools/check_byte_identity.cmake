# ctest gate shared by every byte-compare: run a list of commands, then
# require the files they write to be byte-identical — pairwise to each other
# (determinism across --jobs) or each to a committed golden copy.
#
# Invoked as:
#   cmake -DBIN=<binary> -DOUT_DIR=<dir>
#         -DRUNS="<args of run 1>|<args of run 2>|..."
#         -DCOMPARE=pairwise|golden [-DGOLDEN_DIR=<dir>]
#         [-DNEUTRALIZE=provenance|host_cores] [-DREQUIRE=<regex>]
#         (an empty NEUTRALIZE or REQUIRE is the same as leaving it out)
#         -P check_byte_identity.cmake
#
# Each run is `BIN` followed by its space-separated arguments. Every argument
# of the form `@OUT@/<name>` is an output file, written under OUT_DIR; the
# outputs, in order of appearance, are what gets compared:
#   pairwise  outputs 1 == 2, 3 == 4, ... (each pair differs only in a flag
#             that must not change results, e.g. --jobs);
#   golden    each output == GOLDEN_DIR/<name>.
# NEUTRALIZE blanks the one legitimately varying field on both sides first:
#   provenance  drops the flat "provenance" object (it records --jobs);
#   host_cores  zeroes the generating host's core count.
# REQUIRE is a regex every output must match (a guard against comparing two
# equally broken exports).
if(NOT DEFINED BIN OR NOT DEFINED OUT_DIR OR NOT DEFINED RUNS OR NOT DEFINED COMPARE)
  message(FATAL_ERROR "usage: cmake -DBIN=... -DOUT_DIR=... -DRUNS=... -DCOMPARE=pairwise|golden -P check_byte_identity.cmake")
endif()
if(COMPARE STREQUAL "golden" AND NOT DEFINED GOLDEN_DIR)
  message(FATAL_ERROR "COMPARE=golden needs -DGOLDEN_DIR")
endif()

function(read_neutralized path out_var)
  file(READ ${path} contents)
  if(NEUTRALIZE STREQUAL "provenance")
    # A flat object (no nested braces) on a single-line report, so a
    # non-greedy brace match is exact.
    string(REGEX REPLACE "\"provenance\":{[^}]*}," "" contents "${contents}")
  elseif(NEUTRALIZE STREQUAL "host_cores")
    string(REGEX REPLACE "\"host_cores\":[0-9]+" "\"host_cores\":0" contents "${contents}")
  elseif(NEUTRALIZE)
    message(FATAL_ERROR "unknown NEUTRALIZE=${NEUTRALIZE} (provenance|host_cores)")
  endif()
  if(REQUIRE AND NOT contents MATCHES "${REQUIRE}")
    message(FATAL_ERROR "${path} does not match \"${REQUIRE}\" — export broke?")
  endif()
  set(${out_var} "${contents}" PARENT_SCOPE)
endfunction()

string(REPLACE "|" ";" runs "${RUNS}")
set(outputs "")
foreach(run IN LISTS runs)
  separate_arguments(args UNIX_COMMAND "${run}")
  set(command ${BIN})
  foreach(arg IN LISTS args)
    if(arg MATCHES "^@OUT@/(.+)$")
      list(APPEND outputs ${CMAKE_MATCH_1})
      set(arg ${OUT_DIR}/${CMAKE_MATCH_1})
    endif()
    list(APPEND command ${arg})
  endforeach()
  execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${run} failed (rc=${rc})")
  endif()
endforeach()

list(LENGTH outputs count)
if(count EQUAL 0)
  message(FATAL_ERROR "RUNS names no @OUT@/<name> output to compare")
endif()
if(COMPARE STREQUAL "pairwise")
  math(EXPR odd "${count} % 2")
  if(NOT odd EQUAL 0)
    message(FATAL_ERROR "pairwise compare needs an even number of outputs, got ${count}")
  endif()
  math(EXPR last "${count} - 1")
  foreach(i RANGE 0 ${last} 2)
    math(EXPR j "${i} + 1")
    list(GET outputs ${i} a)
    list(GET outputs ${j} b)
    read_neutralized(${OUT_DIR}/${a} want)
    read_neutralized(${OUT_DIR}/${b} got)
    if(NOT want STREQUAL got)
      message(FATAL_ERROR "${a} and ${b} differ")
    endif()
    message(STATUS "${a} == ${b}")
  endforeach()
elseif(COMPARE STREQUAL "golden")
  foreach(name IN LISTS outputs)
    read_neutralized(${GOLDEN_DIR}/${name} want)
    read_neutralized(${OUT_DIR}/${name} got)
    if(NOT want STREQUAL got)
      message(FATAL_ERROR "${name} drifted from ${GOLDEN_DIR}/${name}")
    endif()
    message(STATUS "${name} matches the golden byte for byte")
  endforeach()
else()
  message(FATAL_ERROR "unknown COMPARE=${COMPARE} (pairwise|golden)")
endif()
message(STATUS "byte identity OK: ${count} output(s), ${COMPARE} compare")
