# Throughput ratchet for the parallel-scaling bench artifact.
#
#   cmake -DFRESH=<freshly generated BENCH_parallel.json>
#         -DCOMMITTED=<committed BENCH_parallel.json>
#         -P check_parallel_ratchet.cmake
#
# Two gates, both against the committed snapshot:
#
#   1. Speedup floor. When the fresh artifact came from a host with >= 4
#      cores, its jobs=4 speedup must clear max(committed jobs=4 speedup,
#      1.8x). The committed value only raises the floor when it was itself
#      measured on a multi-core host — a single-core snapshot (speedup ~1x,
#      pure scheduling overhead) says nothing about scaling. On single-core
#      hosts the gate records the measurement and passes: a ratchet that can
#      only move on hardware able to show parallelism never ratchets down.
#
#   2. Checksum pin. When the two artifacts describe the identical workload
#      (tiles, input, ratio, fast_path), their cycle checksums must be
#      equal — wall-clock may drift with the host, simulated cycles may not.
#      An absent fast_path in older artifacts defaults to the pre-knob
#      behaviour (true) so the gate tolerates snapshots that predate the
#      schema; keys no longer emitted (e.g. a recorded "chunk":0) are
#      ignored.

if(NOT DEFINED FRESH OR NOT DEFINED COMMITTED)
  message(FATAL_ERROR
      "usage: cmake -DFRESH=<fresh.json> -DCOMMITTED=<committed.json> "
      "-P check_parallel_ratchet.cmake")
endif()

function(read_json path out)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "check_parallel_ratchet: missing artifact ${path}")
  endif()
  file(READ "${path}" text)
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

# Pull a top-level "key":value scalar out of the compact JSON the bench
# writes (JsonWriter emits no whitespace). Falls back to ${default} when the
# key is absent so older committed artifacts keep parsing.
function(json_scalar json key default out)
  if("${json}" MATCHES "\"${key}\":([-+a-zA-Z0-9.]+)")
    set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  else()
    set(${out} "${default}" PARENT_SCOPE)
  endif()
endfunction()

function(jobs4_speedup json label out)
  if(NOT "${json}" MATCHES
      "\"jobs\":4,\"wall_ms\":[-+0-9.eE]+,\"speedup_vs_serial\":([-+0-9.eE]+)")
    message(FATAL_ERROR
        "check_parallel_ratchet: ${label} artifact has no jobs=4 run")
  endif()
  set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# CMake's if(LESS) is integer-only, so compare speedups in thousandths.
function(to_millis value out)
  if(NOT "${value}" MATCHES "^([0-9]+)\\.?([0-9]*)")
    message(FATAL_ERROR "check_parallel_ratchet: unparseable number '${value}'")
  endif()
  set(whole "${CMAKE_MATCH_1}")
  set(frac "${CMAKE_MATCH_2}000")
  string(SUBSTRING "${frac}" 0 3 frac)
  # Strip leading zeros (math() would read them as octal); "" means zero.
  string(REGEX REPLACE "^0+" "" frac "${frac}")
  if(frac STREQUAL "")
    set(frac 0)
  endif()
  math(EXPR millis "(${whole} * 1000) + ${frac}")
  set(${out} "${millis}" PARENT_SCOPE)
endfunction()

read_json("${FRESH}" fresh)
read_json("${COMMITTED}" committed)

json_scalar("${fresh}" host_cores 1 fresh_cores)
json_scalar("${committed}" host_cores 1 committed_cores)
jobs4_speedup("${fresh}" fresh fresh_speedup)
jobs4_speedup("${committed}" committed committed_speedup)

# ---- Gate 1: jobs=4 speedup floor -----------------------------------------
if(fresh_cores LESS 4)
  message(STATUS
      "check_parallel_ratchet: host exposed only ${fresh_cores} core(s); "
      "jobs=4 speedup ${fresh_speedup}x recorded, floor not enforced")
else()
  to_millis(1.8 floor)
  set(floor_origin "the 1.8x fast-path floor")
  if(NOT committed_cores LESS 4)
    to_millis(${committed_speedup} committed_millis)
    if(committed_millis GREATER floor)
      set(floor ${committed_millis})
      set(floor_origin "the committed artifact (${committed_speedup}x)")
    endif()
  endif()
  to_millis(${fresh_speedup} fresh_millis)
  if(fresh_millis LESS floor)
    message(FATAL_ERROR
        "check_parallel_ratchet: jobs=4 speedup ${fresh_speedup}x on a "
        "${fresh_cores}-core host regressed below ${floor_origin}")
  endif()
  message(STATUS
      "check_parallel_ratchet: jobs=4 speedup ${fresh_speedup}x clears "
      "${floor_origin}")
endif()

# ---- Gate 2: cycle checksum pin on identical workload params --------------
set(params_match TRUE)
foreach(key tiles input ratio fast_path)
  if(key STREQUAL "fast_path")
    set(default true)
  else()
    set(default "")
  endif()
  json_scalar("${fresh}" ${key} "${default}" fresh_val)
  json_scalar("${committed}" ${key} "${default}" committed_val)
  if(NOT fresh_val STREQUAL committed_val)
    set(params_match FALSE)
    message(STATUS
        "check_parallel_ratchet: ${key} differs "
        "(fresh ${fresh_val} vs committed ${committed_val})")
  endif()
endforeach()

if(params_match)
  json_scalar("${fresh}" cycle_checksum "" fresh_sum)
  json_scalar("${committed}" cycle_checksum "" committed_sum)
  if(NOT fresh_sum STREQUAL committed_sum)
    message(FATAL_ERROR
        "check_parallel_ratchet: cycle checksum drifted on identical "
        "workload params (fresh ${fresh_sum} vs committed ${committed_sum}) "
        "— the simulator's cycle semantics changed; regenerate and review "
        "the committed artifact deliberately")
  endif()
  message(STATUS
      "check_parallel_ratchet: cycle checksum ${fresh_sum} matches the "
      "committed artifact")
else()
  message(STATUS
      "check_parallel_ratchet: workload params differ from the committed "
      "artifact; checksum pin skipped")
endif()
