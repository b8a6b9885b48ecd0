// JSONL plumbing shared by every durable batch file.
//
// The sweep checkpoint is an append-only JSONL ledger that a killed
// process must be able to resume from; the sweep results and the
// telemetry files are published whole.  This module
// owns the decisions those files must agree on, so they are made once:
//
//   escaping       json_escape / json_unescape, and the field readers that
//                  pull one value back out of a line we wrote ourselves;
//   torn lines     a ledger line is whole iff it ends in '}' and the
//                  engine's accept parse uses it.  Anything else was cut
//                  by a crash mid-write (or is stale): it is warned about,
//                  counted, never passed on (so its unit re-runs) and
//                  dropped from the file, which also removes a fragment
//                  a new line could otherwise glue onto;
//   publishing     atomic_write_file writes `<path>.tmp` and renames it
//                  over the target, so readers see the old file or the new
//                  one, never a truncated one.
#pragma once

#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "common/types.hpp"

namespace gpusim {

/// JSON string-body escaping: quote, backslash, \n, \r, \t and \u00XX for
/// the remaining control bytes; every other byte passes through.
std::string json_escape(const std::string& text);

/// Inverse of json_escape, total over arbitrary input: a malformed escape
/// is kept literally instead of failing (readers never trust their input).
std::string json_unescape(const std::string& text);

/// The unescaped value of the first `"key":"…"` field in `line` (spaces
/// may follow the colon); nullopt when the key is absent, its value is not
/// a string or its string is unterminated.
std::optional<std::string> json_string_field(const std::string& line,
                                             const std::string& key);

/// The value of the first `"key":<digits>` field in `line` (spaces may
/// follow the colon); nullopt when the key is absent or its value does not
/// start with a digit.
std::optional<u64> json_u64_field(const std::string& line,
                                  const std::string& key);

/// %.17g: round-trips every double bit-exactly, which the byte-identical
/// resume guarantee depends on.
std::string fmt_double(double v);

/// Publishes `text` at `path` atomically: creates the parent directory,
/// writes and checks `<path>.tmp`, then renames it over `path`.  Any
/// failure raises SimError(kHarness) tagged with `component` and removes
/// the temp file.
void atomic_write_file(const std::string& path, const std::string& text,
                       const std::string& component);

/// An append-only JSONL file of one-line records, shared by every batch
/// engine.  Construction loads the existing file: each non-empty line that
/// ends in '}' is handed to `accept`, in file order; a line that does not,
/// or that `accept` does not use, is torn — warned about on stderr, counted
/// and skipped.  A file with a skipped line, or whose last line lacks its
/// newline, is then rewritten (atomic_write_file) with only the used lines,
/// so the next load skips nothing and no append can glue onto a fragment.
/// An empty path means no file: nothing loads and append() is a no-op.
///
/// A file with lines of which `accept` recognizes none as the owner's
/// (kUse or kStale) is not this ledger: a results file named by mistake,
/// say.  Construction refuses it with SimError(kHarness) and leaves it as
/// it is, unless all it holds is one unended fragment, which is what a
/// crash during the first append leaves.
class Ledger {
 public:
  /// What the ledger's owner makes of one whole line.
  enum class Verdict {
    kUse,      ///< a current line: loaded, and kept in the file
    kStale,    ///< an owner's line that no longer applies: dropped
    kForeign,  ///< not an owner's line at all: dropped
  };
  using Accept = std::function<Verdict(const std::string& line)>;

  Ledger(std::string path, std::string component, const Accept& accept);

  /// Appends one whole line and flushes it before returning, under a
  /// mutex: concurrent appends never interleave, and a crash loses at most
  /// the line being written.  A failed write raises SimError(kHarness).
  void append(const std::string& line);

  /// Torn or rejected lines skipped while loading.
  int torn_lines() const { return torn_lines_; }

 private:
  std::string path_;
  std::string component_;
  std::ofstream out_;
  std::mutex mu_;
  int torn_lines_ = 0;
};

}  // namespace gpusim
