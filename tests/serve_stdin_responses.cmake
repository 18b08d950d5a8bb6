# Pipes one pipelined jsonl stream through `kgq-serve` in stdin mode at
# 1 and 4 workers and checks that every request gets exactly one
# response line: a line count equal to the request count, and each
# query id answered once.
#
#   cmake -DKGQ_SERVE=<kgq-serve binary> -DWORK_DIR=<output dir>
#         -P serve_stdin_responses.cmake

set(kNodes 40)
set(kQueries 3000)

# A path of `rides` edges over alternating person/bus nodes, one
# publish, then back-to-back closure queries the workers answer while
# the dispatcher is still reading.
set(stream "")
math(EXPR last_node "${kNodes} - 1")
math(EXPR last_edge "${kNodes} - 2")
foreach(i RANGE 0 ${last_node})
  math(EXPR odd "${i} % 2")
  if(odd)
    string(APPEND stream "{\"op\":\"add_node\",\"label\":\"bus\"}\n")
  else()
    string(APPEND stream "{\"op\":\"add_node\",\"label\":\"person\"}\n")
  endif()
endforeach()
foreach(i RANGE 0 ${last_edge})
  math(EXPR j "${i} + 1")
  string(APPEND stream
         "{\"op\":\"insert_edge\",\"from\":${i},\"to\":${j},"
         "\"label\":\"rides\"}\n")
endforeach()
string(APPEND stream "{\"op\":\"publish\"}\n")
foreach(i RANGE 1 ${kQueries})
  math(EXPR anchor "${i} % ${kNodes}")
  string(APPEND stream
         "{\"op\":\"query\",\"id\":${i},\"lang\":\"bgp\","
         "\"text\":\"n${anchor} rides* ?x\"}\n")
endforeach()
math(EXPR kRequests "${kNodes} + ${last_edge} + 2 + ${kQueries}")

set(input "${WORK_DIR}/serve_stdin_stream.jsonl")
file(WRITE "${input}" "${stream}")

foreach(workers 1 4)
  execute_process(
    COMMAND "${KGQ_SERVE}" --workers ${workers}
    INPUT_FILE "${input}"
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "kgq-serve --workers ${workers} exited with ${rc}")
  endif()
  string(REGEX MATCHALL "\n" newlines "${out}")
  list(LENGTH newlines lines)
  if(NOT lines EQUAL kRequests)
    message(FATAL_ERROR "--workers ${workers}: ${lines} response lines for "
                        "${kRequests} requests")
  endif()
  string(REGEX MATCHALL "\"id\":[0-9]+," ids "${out}")
  list(LENGTH ids answered)
  list(REMOVE_DUPLICATES ids)
  list(LENGTH ids distinct)
  if(NOT answered EQUAL kQueries OR NOT distinct EQUAL kQueries)
    message(FATAL_ERROR "--workers ${workers}: ${answered} query responses, "
                        "${distinct} distinct ids, for ${kQueries} queries")
  endif()
  message(STATUS "--workers ${workers}: ${lines} responses, one per request")
endforeach()
