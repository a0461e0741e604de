# src/CMakeLists.txt runs ${CMAKE_SOURCE_DIR}/cmake/GenerateVersion.cmake,
# and here the top-level source dir is perfbench/. Forward to the
# repository's script so the driver embeds the same revision and build
# configuration that `dfmkit --version` prints.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/GenerateVersion.cmake)
