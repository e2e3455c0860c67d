# Configuration-space fuzz smoke check for `pilot-bench fuzz`, driven by
# CTest.
#
# Invocation (see tests/CMakeLists.txt):
#   cmake -DPILOT_BENCH_BIN=<path> -P run_fuzz_case.cmake
#
# Runs `pilot-bench fuzz --cases 24 --seed 1`, which must exit 0 (every
# verdict certified, no engine disagreement), and checks that the per-case
# lines name every value of every configuration knob the fuzzer draws:
# gen-batch 1/2/4/8, gen-batch-adaptive and gen-ternary-filter on/off,
# lift-sim packed/byte, and each registered generalization strategy or none.

if(NOT DEFINED PILOT_BENCH_BIN)
  message(FATAL_ERROR "run_fuzz_case.cmake: missing -DPILOT_BENCH_BIN")
endif()

execute_process(
  COMMAND "${PILOT_BENCH_BIN}" fuzz --cases 24 --seed 1
  RESULT_VARIABLE fuzz_rc
  OUTPUT_VARIABLE fuzz_out
  ERROR_VARIABLE fuzz_out)
if(NOT fuzz_rc EQUAL 0)
  message(FATAL_ERROR "pilot-bench fuzz failed (exit ${fuzz_rc}):\n${fuzz_out}")
endif()

set(expected_knobs
  "gen-batch=1 " "gen-batch=2 " "gen-batch=4 " "gen-batch=8 "
  "gen-batch-adaptive=on " "gen-batch-adaptive=off "
  "gen-ternary-filter=on " "gen-ternary-filter=off "
  "lift-sim=packed " "lift-sim=byte "
  "gen=none" "gen=down" "gen=ctg" "gen=cav23" "gen=predict" "gen=dynamic")
foreach(knob IN LISTS expected_knobs)
  string(FIND "${fuzz_out}" "${knob}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "fuzz output never drew '${knob}':\n${fuzz_out}")
  endif()
endforeach()
message(STATUS "pilot-bench fuzz: 24 cases clean, every knob value drawn")
