# Build file of the perfbench benchmark.
#
# run.py configures the repository's own CMake project with
#   -DCMAKE_PROJECT_INCLUDE=<checkout>/perfbench/perfbench.cmake
# so the benchmark binary links the perfbg libraries exactly as the
# repository builds them: same targets, same compile options, same standard.
# The target is added once the root CMakeLists.txt has been processed, so every
# directory-level setting it makes (C++ standard, warnings) applies here too.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_target)
  add_executable(perfbench
    ${PERFBENCH_DIR}/alloc_count.cpp
    ${PERFBENCH_DIR}/checks.cpp
    ${PERFBENCH_DIR}/kernels.cpp
    ${PERFBENCH_DIR}/spans.cpp
    ${PERFBENCH_DIR}/workloads.cpp
    ${PERFBENCH_DIR}/main.cpp)
  target_include_directories(perfbench PRIVATE ${PERFBENCH_DIR})
  target_compile_definitions(perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  target_link_libraries(perfbench PRIVATE perfbg_server perfbg_runner perfbg_core
                        perfbg_workloads perfbg_obs)
endfunction()

cmake_language(DEFER CALL perfbench_add_target)
