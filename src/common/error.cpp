#include "common/error.hpp"

namespace eth {

void fail(std::string_view message) { throw Error(std::string(message)); }

const char* to_string(TransportErrorCode code) {
  switch (code) {
    case TransportErrorCode::kConnectionRefused: return "connection-refused";
    case TransportErrorCode::kConnectionClosed: return "connection-closed";
    case TransportErrorCode::kTimeout: return "timeout";
    case TransportErrorCode::kCorruptFrame: return "corrupt-frame";
    case TransportErrorCode::kTruncated: return "truncated";
    case TransportErrorCode::kMessageTooLarge: return "message-too-large";
  }
  return "?";
}

TransportError::TransportError(TransportErrorCode code, const std::string& what)
    : Error(std::string("[") + to_string(code) + "] " + what), code_(code) {}

void fail_transport(TransportErrorCode code, std::string_view message) {
  throw TransportError(code, std::string(message));
}

} // namespace eth
