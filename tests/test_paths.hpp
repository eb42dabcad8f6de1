// Scratch paths for tests that touch the filesystem.  ctest -j runs
// every test case as its own process, concurrently, so a path keyed on
// anything a sibling can share — a seed, an object address, a fixed
// name used by both variants of a parameterized test — lets one test
// clobber another's files.  The process id plus the full gtest name
// (suite, test and parameter suffix) cannot collide.
#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>

namespace pbl {

/// TempDir()/pbl_<pid>_<Suite.Test>_<tag>, unique per process and per
/// running test; `tag` tells several paths of one test apart (and may
/// carry an extension).
inline std::string unique_test_path(std::string_view tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr
                         ? std::string("no_test")
                         : std::string(info->test_suite_name()) + "." +
                               info->name();
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') c = '_';
  return ::testing::TempDir() + "pbl_" + std::to_string(::getpid()) + "_" +
         name + "_" + std::string(tag);
}

}  // namespace pbl
