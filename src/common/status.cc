#include "common/status.h"

#include <cstdio>
#include <cstdlib>

#include "common/result.h"

namespace provdb {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kVerificationFailed:
      return "VerificationFailed";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(StatusCodeToString(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {

void ResultValueFailed(const Status& status) {
  std::fprintf(stderr, "Result::value() on an error result: %s; aborting\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal

}  // namespace provdb
