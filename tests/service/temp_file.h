// A file a test writes into gtest's TempDir, removed when its guard is
// destroyed: at scope exit, or at process exit for a function-local
// static, so repeated test runs leave nothing behind.
#pragma once

#include <string>
#include <utility>

#include <unistd.h>

namespace dfm::service {

class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  ~TempFile() { ::unlink(path_.c_str()); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace dfm::service
