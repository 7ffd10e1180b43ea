#ifndef MCOND_TESTS_SCRATCH_PATH_H_
#define MCOND_TESTS_SCRATCH_PATH_H_

#include <unistd.h>

#include <filesystem>
#include <string>

namespace mcond {

/// `<temp dir>/mcond_test_<pid>_<name>`: a file or directory path that only
/// this process uses, so two test runs at once (two build trees, or one
/// binary started twice) never write, truncate or remove each other's
/// stores. The caller removes what it creates.
inline std::string ScratchPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("mcond_test_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

}  // namespace mcond

#endif  // MCOND_TESTS_SCRATCH_PATH_H_
