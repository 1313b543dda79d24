# CTest script driving the maxutil_cli binary end-to-end:
# generate -> validate -> solve (lp and gradient agree) -> dot, plus the
# unknown-flag error.
# Invoked as: cmake -DCLI=<path-to-maxutil_cli> -DWORK=<dir> -P cli_test.cmake

function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE error
                  RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "maxutil_cli ${ARGN} failed (${result}): ${error}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

set(scenario_file ${WORK}/cli_test_scenario.txt)

run_cli(generated generate --servers 12 --commodities 2 --stages 3 --seed 7)
file(WRITE ${scenario_file} "${generated}")

run_cli(validated validate ${scenario_file})
if(NOT validated MATCHES "OK")
  message(FATAL_ERROR "validate did not report OK: ${validated}")
endif()

run_cli(lp_out solve ${scenario_file} --algo lp)
if(NOT lp_out MATCHES "total utility \\(lp\\): ([0-9.]+)")
  message(FATAL_ERROR "lp solve output unparseable: ${lp_out}")
endif()
set(lp_value ${CMAKE_MATCH_1})

run_cli(grad_out solve ${scenario_file} --algo gradient --iters 6000 --eps 0.05)
if(NOT grad_out MATCHES "total utility \\(gradient\\): ([0-9.]+)")
  message(FATAL_ERROR "gradient solve output unparseable: ${grad_out}")
endif()
set(grad_value ${CMAKE_MATCH_1})

# Gradient within 10% of the LP optimum.
math(EXPR dummy "0")  # noop to keep CMake happy with math contexts
if(grad_value LESS 0)
  message(FATAL_ERROR "negative utility")
endif()
# CMake's math() is integer-only; compare via floating arithmetic in CMake 3.19+
# string comparison fallback: compute ratio with execute_process(awk)-free trick:
# use if(LESS) on scaled integers.
string(REPLACE "." "" _ignore "${grad_value}")  # ensure numeric-ish
math(EXPR grad_milli "0")
# Use CMake's native float comparison (3.7+ supports VERSION_LESS misuse is
# fragile); do a computed check instead:
execute_process(COMMAND ${CMAKE_COMMAND} -E echo "check"
                OUTPUT_QUIET)
# Simple threshold: grad >= 0.9 * lp  <=>  10*grad >= 9*lp.
# Parse into integer micro-units.
macro(to_micro var value)
  string(FIND "${value}" "." dot_pos)
  if(dot_pos EQUAL -1)
    set(int_part "${value}")
    set(frac_part "000000")
  else()
    string(SUBSTRING "${value}" 0 ${dot_pos} int_part)
    math(EXPR frac_start "${dot_pos} + 1")
    string(SUBSTRING "${value}" ${frac_start} -1 frac_part)
    set(frac_part "${frac_part}000000")
    string(SUBSTRING "${frac_part}" 0 6 frac_part)
  endif()
  math(EXPR ${var} "${int_part} * 1000000 + ${frac_part}")
endmacro()
to_micro(grad_micro "${grad_value}")
to_micro(lp_micro "${lp_value}")
math(EXPR lhs "10 * ${grad_micro}")
math(EXPR rhs "9 * ${lp_micro}")
if(lhs LESS rhs)
  message(FATAL_ERROR "gradient ${grad_value} below 90% of LP ${lp_value}")
endif()

run_cli(dot_out dot ${scenario_file})
if(NOT dot_out MATCHES "digraph G")
  message(FATAL_ERROR "dot output malformed")
endif()
run_cli(dot_ext dot ${scenario_file} --extended)
if(NOT dot_ext MATCHES "dummy")
  message(FATAL_ERROR "extended dot output lacks dummy nodes")
endif()

# A misspelled flag is an error, not a silent default: --iter (for --iters)
# must fail and name the flag instead of running the default budget.
execute_process(COMMAND ${CLI} solve ${scenario_file} --algo gradient --iter 3
                OUTPUT_VARIABLE typo_out
                ERROR_VARIABLE typo_err
                RESULT_VARIABLE typo_result)
if(typo_result EQUAL 0 OR NOT typo_err MATCHES "unknown flag --iter")
  message(FATAL_ERROR
          "solve --iter 3 should fail with 'unknown flag --iter' "
          "(exit ${typo_result}): ${typo_err}")
endif()

message(STATUS "cli_test: all checks passed (lp=${lp_value}, gradient=${grad_value})")
