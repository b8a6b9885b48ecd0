#include "common/jsonl.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "common/sim_error.hpp"

namespace gpusim {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out += text[i];
      continue;
    }
    const char next = text[++i];
    switch (next) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 < text.size()) {
          const std::string hex = text.substr(i + 1, 4);
          char* end = nullptr;
          const unsigned long code = std::strtoul(hex.c_str(), &end, 16);
          if (end != nullptr && *end == '\0' && code < 0x80) {
            out += static_cast<char>(code);
            i += 4;
            break;
          }
        }
        out += "\\u";
        break;
      }
      default:
        out += '\\';
        out += next;
        break;
    }
  }
  return out;
}

namespace {

/// Index of the first value byte after `"key":` and any spaces, or npos.
std::size_t value_start(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return pos;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  return pos;
}

}  // namespace

std::optional<std::string> json_string_field(const std::string& line,
                                             const std::string& key) {
  const auto quote = value_start(line, key);
  if (quote >= line.size() || line[quote] != '"') return std::nullopt;
  const auto start = quote + 1;
  for (auto i = start; i < line.size(); ++i) {
    if (line[i] == '\\') {
      ++i;  // an escaped character never closes the string
    } else if (line[i] == '"') {
      return json_unescape(line.substr(start, i - start));
    }
  }
  return std::nullopt;
}

std::optional<u64> json_u64_field(const std::string& line,
                                  const std::string& key) {
  const auto start = value_start(line, key);
  if (start == std::string::npos) return std::nullopt;
  auto end = start;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  if (end == start) return std::nullopt;
  return std::strtoull(line.substr(start, end - start).c_str(), nullptr, 10);
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void atomic_write_file(const std::string& path, const std::string& text,
                       const std::string& component) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SIM_CHECK(out.good(), SimError(SimErrorKind::kHarness, component,
                                   "cannot open file for writing")
                              .detail("path", tmp));
    out << text;
    out.flush();
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      SIM_FAIL(SimError(SimErrorKind::kHarness, component,
                        "short write while publishing a file")
                   .detail("path", tmp));
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    SIM_FAIL(SimError(SimErrorKind::kHarness, component,
                      "atomic rename of a published file failed")
                 .detail("from", tmp)
                 .detail("to", path)
                 .detail("error", ec.message()));
  }
}

Ledger::Ledger(std::string path, std::string component, const Accept& accept)
    : path_(std::move(path)), component_(std::move(component)) {
  if (path_.empty()) return;
  std::string kept;       // the used lines, each with its newline
  std::string warnings;   // one per skipped line, printed unless refused
  bool unended = false;   // the last line lacks its newline
  int owned = 0;          // lines `accept` called kUse or kStale
  int skipped_ended = 0;  // skipped lines that had their newline
  {
    std::ifstream in(path_, std::ios::binary);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      // getline sets eof only when the line it returns had no newline, so
      // after the loop this says whether the file ends in a fragment.
      unended = in.eof();
      if (line.empty()) continue;  // padding older ledgers sealed tails with
      const bool truncated = line.back() != '}';
      const Verdict verdict = truncated ? Verdict::kForeign : accept(line);
      if (verdict != Verdict::kForeign) ++owned;
      if (verdict == Verdict::kUse) {
        kept += line + '\n';
        continue;
      }
      ++torn_lines_;
      if (!unended) ++skipped_ended;
      warnings += "gpusim: " + component_ + ": " + path_ + " line " +
                  std::to_string(line_no) + " is " +
                  (truncated ? "truncated (crash mid-write?)"
                             : "unreadable or stale") +
                  " — skipping it; its unit will re-run\n";
    }
  }
  SIM_CHECK(owned != 0 || skipped_ended == 0,
            SimError(SimErrorKind::kHarness, component_,
                     "the file holds no line of this ledger; refusing to "
                     "rewrite it (wrong path?)")
                .detail("path", path_)
                .detail("skipped_lines", torn_lines_));
  std::fputs(warnings.c_str(), stderr);
  if (torn_lines_ != 0 || unended) atomic_write_file(path_, kept, component_);
  out_.open(path_, std::ios::binary | std::ios::app);
  SIM_CHECK(out_.good(), SimError(SimErrorKind::kHarness, component_,
                                  "cannot open JSONL file for append")
                             .detail("path", path_));
}

void Ledger::append(const std::string& line) {
  if (path_.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  out_.flush();
  SIM_CHECK(out_.good(), SimError(SimErrorKind::kHarness, component_,
                                  "short write to JSONL file")
                             .detail("path", path_));
}

}  // namespace gpusim
