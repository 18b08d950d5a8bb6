# `kgq-serve --workers N` starts one thread per worker, so N is capped
# (kgq::serve::kMaxWorkers = 256). A value above the cap is a bad
# argument: exit code 2 before any thread starts. --help names the cap.
#
#   cmake -DKGQ_SERVE=<kgq-serve binary> -P serve_workers_cap.cmake

execute_process(
  COMMAND "${KGQ_SERVE}" --workers 257
  INPUT_FILE /dev/null
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--workers 257: exit ${rc}, expected 2\n${err}")
endif()
if(NOT err MATCHES "bad argument: --workers")
  message(FATAL_ERROR "--workers 257: no bad-argument message:\n${err}")
endif()

execute_process(
  COMMAND "${KGQ_SERVE}" --help
  OUTPUT_VARIABLE help
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT help MATCHES "most 256")
  message(FATAL_ERROR "--help does not state the worker cap:\n${help}")
endif()
