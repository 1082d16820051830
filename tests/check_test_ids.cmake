# Lists every ctest name in BUILD_DIR and fails if any is a raw byte dump of
# a struct test parameter. gtest prints such a struct's padding too, and the
# padding is uninitialised, so the name can change from one build or listing
# to the next. A 4-byte dump is an enum (CausalBufferKind): it has no
# padding, so its name is stable and is left as it is. Run as:
#   cmake -DCTEST=ctest -DBUILD_DIR=build -P tests/check_test_ids.cmake
execute_process(COMMAND ${CTEST} -N
                WORKING_DIRECTORY ${BUILD_DIR}
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE status)
if(NOT status EQUAL 0 OR NOT listing MATCHES "Total Tests: [1-9]")
  message(FATAL_ERROR "ctest -N failed in ${BUILD_DIR}:\n${listing}")
endif()
string(REGEX MATCHALL "[^\n]*byte object[^\n]*" dumps "${listing}")
list(FILTER dumps EXCLUDE REGEX "[^0-9]4-byte object")
if(dumps)
  list(JOIN dumps "\n" dumps)
  message(FATAL_ERROR "test IDs with raw struct bytes:\n${dumps}")
endif()
