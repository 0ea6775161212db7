#pragma once
// Error handling for ETH.
//
// Policy (per C++ Core Guidelines E.2/E.14): throw eth::Error for
// violated preconditions and unrecoverable runtime failures; library code
// never calls std::abort or exit. `require` is the single checked entry
// point so that call sites read as contracts.

#include <stdexcept>
#include <string>
#include <string_view>

namespace eth {

/// Exception type thrown for all ETH library errors.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Unconditionally raise an eth::Error (for unreachable branches and
/// unsupported enum values).
[[noreturn]] void fail(std::string_view message);

/// Throw eth::Error with `message` when `condition` is false.
/// Usage: require(n >= 0, "particle count must be non-negative");
/// Inline and allocation-free when the check passes: a string literal
/// is passed as a view, and the exception's message string is built
/// only when the check fails.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] fail(message);
}

/// Failure taxonomy for the in-situ transport path (DESIGN.md §8).
/// Every transport-layer failure is classified so callers can decide
/// what is retryable (timeouts, corrupt frames) and what is fatal
/// (oversized messages, i.e. protocol violations).
enum class TransportErrorCode {
  kConnectionRefused, ///< peer's port never accepted within the deadline
  kConnectionClosed,  ///< peer closed the stream mid-message
  kTimeout,           ///< recv deadline or rendezvous deadline elapsed
  kCorruptFrame,      ///< frame CRC32 mismatch (payload bit damage)
  kTruncated,         ///< frame shorter than its header promises
  kMessageTooLarge,   ///< length prefix exceeds kMaxMessageBytes
};
const char* to_string(TransportErrorCode code);

/// Exception thrown for classified transport failures. Derives from
/// eth::Error so existing catch sites keep working; new code can switch
/// on code() to pick a retry/drop/abort policy.
class TransportError : public Error {
public:
  TransportError(TransportErrorCode code, const std::string& what);
  TransportErrorCode code() const { return code_; }

private:
  TransportErrorCode code_;
};

/// Unconditionally raise TransportError(code, message).
[[noreturn]] void fail_transport(TransportErrorCode code,
                                 std::string_view message);

/// Throw TransportError(code, message) when `condition` is false.
/// Inline and allocation-free when the check passes, which is what lets
/// the LZ decoder check every field of untrusted input.
inline void require_transport(bool condition, TransportErrorCode code,
                              std::string_view message) {
  if (!condition) [[unlikely]] fail_transport(code, message);
}

} // namespace eth
