#include "prestige_lint/prestige_lint.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace prestige {
namespace lint {

namespace {

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Leading directory of a root-relative path ("core/replica.h" -> "core");
/// empty for files at the root.
std::string TopDir(const std::string& path) {
  const size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// ------------------------------------------------------------- scrubbing

/// A file prepared for token scanning: comments and string/char literal
/// *bodies* are blanked with spaces (delimiters and layout preserved, so
/// offsets and line numbers match the original), and lint:allow(...)
/// suppressions have been collected per line.
struct Scrubbed {
  std::string code;                  ///< Same length as the original.
  std::vector<size_t> line_starts;   ///< Offset of each line's first char.
  /// line (1-based) -> rules suppressed on that line.
  std::map<int, std::set<std::string>> allow;

  int LineOf(size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                     offset);
    return static_cast<int>(it - line_starts.begin());
  }
};

/// Parses every `lint:allow(rule[, rule...])` in `comment` into `out`.
/// A rule entry may carry a free-form reason after ':'.
void ParseAllow(const std::string& comment, std::set<std::string>* out) {
  size_t pos = 0;
  while ((pos = comment.find("lint:allow(", pos)) != std::string::npos) {
    pos += 11;  // strlen("lint:allow(")
    const size_t close = comment.find(')', pos);
    if (close == std::string::npos) return;
    std::string inside = comment.substr(pos, close - pos);
    pos = close + 1;
    std::stringstream ss(inside);
    std::string entry;
    while (std::getline(ss, entry, ',')) {
      const size_t colon = entry.find(':');
      if (colon != std::string::npos) entry = entry.substr(0, colon);
      const size_t b = entry.find_first_not_of(" \t");
      const size_t e = entry.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      out->insert(entry.substr(b, e - b + 1));
    }
  }
}

Scrubbed Scrub(const std::string& content) {
  Scrubbed s;
  s.code = content;
  s.line_starts.push_back(0);

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string comment_text;   // Text of the comment currently being read.
  int comment_line = 1;       // Line on which that comment started.
  int line = 1;

  // Collects the finished comment's suppressions onto its starting line.
  const auto flush_comment = [&]() {
    std::set<std::string> rules;
    ParseAllow(comment_text, &rules);
    if (!rules.empty()) s.allow[comment_line].insert(rules.begin(), rules.end());
    comment_text.clear();
  };

  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      s.line_starts.push_back(i + 1);
      ++line;
    }

    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line = line;
          s.code[i] = ' ';
          s.code[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_line = line;
          s.code[i] = ' ';
          s.code[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          // Raw strings (R"( ... )") are rare here; handle them so a ')"'
          // inside one cannot desynchronize the scan.
          if (i > 0 && content[i - 1] == 'R' &&
              (i < 2 || !IsIdentChar(content[i - 2]))) {
            const size_t open = content.find('(', i + 1);
            if (open == std::string::npos) break;
            const std::string delim =
                ")" + content.substr(i + 1, open - i - 1) + "\"";
            const size_t close = content.find(delim, open + 1);
            const size_t end =
                close == std::string::npos ? content.size()
                                           : close + delim.size();
            for (size_t j = i + 1; j < end - 1 && j < content.size(); ++j) {
              if (s.code[j] == '\n') {
                s.line_starts.push_back(j + 1);
                ++line;
              } else {
                s.code[j] = ' ';
              }
            }
            i = end - 1;
          } else {
            state = State::kString;
          }
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;

      case State::kLineComment:
        if (c == '\n') {
          flush_comment();
          state = State::kCode;
        } else {
          comment_text.push_back(c);
          s.code[i] = ' ';
        }
        break;

      case State::kBlockComment:
        if (c == '*' && next == '/') {
          flush_comment();
          s.code[i] = ' ';
          s.code[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          comment_text.push_back(c);
          s.code[i] = ' ';
        } else {
          comment_text.push_back('\n');
        }
        break;

      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          s.code[i] = ' ';
          if (next != '\0' && next != '\n') {
            s.code[i + 1] = ' ';
            ++i;
          }
        } else if (c == quote) {
          state = State::kCode;
        } else if (c != '\n') {
          s.code[i] = ' ';
        }
        break;
      }
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    flush_comment();
  }

  // A comment-only line's suppressions also cover the next line (so
  // `// lint:allow(x)` can sit above the offending statement); chains of
  // comment-only lines carry accumulated suppressions forward.
  const int total_lines = static_cast<int>(s.line_starts.size());
  for (int l = 1; l <= total_lines; ++l) {
    const auto it = s.allow.find(l);
    if (it == s.allow.end()) continue;
    const size_t begin = s.line_starts[static_cast<size_t>(l) - 1];
    const size_t end = static_cast<size_t>(l) < s.line_starts.size()
                           ? s.line_starts[static_cast<size_t>(l)]
                           : s.code.size();
    bool code_on_line = false;
    for (size_t i = begin; i < end; ++i) {
      if (!IsSpace(s.code[i])) {
        code_on_line = true;
        break;
      }
    }
    if (!code_on_line && l + 1 <= total_lines + 1) {
      s.allow[l + 1].insert(it->second.begin(), it->second.end());
    }
  }
  return s;
}

bool Suppressed(const Scrubbed& s, int line, const std::string& rule) {
  const auto it = s.allow.find(line);
  if (it == s.allow.end()) return false;
  return it->second.count(rule) != 0 || it->second.count("all") != 0;
}

// --------------------------------------------------------- token helpers

/// True when `code[pos..pos+len)` is the whole identifier `token`.
bool TokenAt(const std::string& code, size_t pos, size_t len) {
  if (pos > 0 && IsIdentChar(code[pos - 1])) return false;
  if (pos + len < code.size() && IsIdentChar(code[pos + len])) return false;
  return true;
}

size_t SkipSpace(const std::string& code, size_t i) {
  while (i < code.size() && IsSpace(code[i])) ++i;
  return i;
}

/// True when the identifier ending just before `pos` (skipping whitespace
/// backwards) is reached through `.` or `->` (a member call on some object,
/// not the global/std function of the same name).
bool IsMemberAccess(const std::string& code, size_t token_begin) {
  size_t i = token_begin;
  while (i > 0 && IsSpace(code[i - 1])) --i;
  if (i == 0) return false;
  if (code[i - 1] == '.') return true;
  if (code[i - 1] == '>' && i >= 2 && code[i - 2] == '-') return true;
  return false;
}

// ------------------------------------------------------------- includes

struct IncludeEdge {
  std::string target;  ///< The include path, verbatim (no delimiters).
  int line = 0;
  bool system = false;  ///< True for <...> includes, false for "..." ones.
};

/// Both include forms. Quoted edges feed the layering graph (system
/// includes cannot point back into src/); angle-bracket edges feed the
/// threading rule.
std::vector<IncludeEdge> ParseIncludes(const std::string& content) {
  std::vector<IncludeEdge> edges;
  int line = 1;
  size_t i = 0;
  while (i < content.size()) {
    size_t eol = content.find('\n', i);
    if (eol == std::string::npos) eol = content.size();
    size_t j = i;
    while (j < eol && (content[j] == ' ' || content[j] == '\t')) ++j;
    if (j < eol && content[j] == '#') {
      ++j;
      while (j < eol && (content[j] == ' ' || content[j] == '\t')) ++j;
      if (content.compare(j, 7, "include") == 0) {
        j = SkipSpace(content, j + 7);
        if (j < eol && content[j] == '"') {
          const size_t close = content.find('"', j + 1);
          if (close != std::string::npos && close < eol) {
            edges.push_back({content.substr(j + 1, close - j - 1), line,
                             /*system=*/false});
          }
        } else if (j < eol && content[j] == '<') {
          const size_t close = content.find('>', j + 1);
          if (close != std::string::npos && close < eol) {
            edges.push_back({content.substr(j + 1, close - j - 1), line,
                             /*system=*/true});
          }
        }
      }
    }
    i = eol + 1;
    ++line;
  }
  return edges;
}

// --------------------------------------------------------------- context

struct FileCtx {
  const SourceFile* file = nullptr;
  Scrubbed scrubbed;
  std::vector<IncludeEdge> includes;
};

struct LintCtx {
  std::vector<FileCtx> files;
  std::unordered_map<std::string, size_t> by_path;
  std::vector<Finding> findings;

  void Report(const FileCtx& f, int line, const std::string& rule,
              const std::string& message) {
    if (Suppressed(f.scrubbed, line, rule)) return;
    findings.push_back({rule, f.file->path, line, message});
  }
};

// ------------------------------------------------------------- layering

const std::set<std::string>& ProtectedDirs() {
  static const std::set<std::string> kDirs = {"core", "baselines", "client",
                                              "app"};
  return kDirs;
}

const std::set<std::string>& ForbiddenDirs() {
  // shard/ is harness-side routing (PR 9): protocol code must stay
  // group-oblivious — a replica never knows which shard it serves.
  static const std::set<std::string> kDirs = {"sim", "harness", "workload",
                                              "shard"};
  return kDirs;
}

/// Per-file taint: does this file's include closure touch a forbidden
/// layer? `witness` holds one offending chain for the error message.
struct Taint {
  int state = 0;  // 0 = unvisited, 1 = in progress, 2 = done.
  bool tainted = false;
  std::vector<std::string> witness;  // file, ..., forbidden file.
};

bool ComputeTaint(LintCtx& ctx, size_t idx, std::vector<Taint>& taints) {
  Taint& t = taints[idx];
  if (t.state == 2) return t.tainted;
  if (t.state == 1) return false;  // Include cycle: break conservatively.
  t.state = 1;
  const FileCtx& f = ctx.files[idx];
  if (ForbiddenDirs().count(TopDir(f.file->path)) != 0) {
    t.tainted = true;
    t.witness = {f.file->path};
  } else {
    for (const IncludeEdge& e : f.includes) {
      if (e.system) continue;
      const auto it = ctx.by_path.find(e.target);
      if (it != ctx.by_path.end()) {
        if (ComputeTaint(ctx, it->second, taints)) {
          t.tainted = true;
          t.witness = taints[it->second].witness;
          t.witness.insert(t.witness.begin(), f.file->path);
          break;
        }
      } else if (ForbiddenDirs().count(TopDir(e.target)) != 0) {
        // Not in the analyzed set (e.g. a fixture) but named into a
        // forbidden layer: the path alone convicts it.
        t.tainted = true;
        t.witness = {f.file->path, e.target};
        break;
      }
    }
  }
  t.state = 2;
  return t.tainted;
}

void RunLayering(LintCtx& ctx) {
  std::vector<Taint> taints(ctx.files.size());
  for (size_t i = 0; i < ctx.files.size(); ++i) {
    const FileCtx& f = ctx.files[i];
    if (ProtectedDirs().count(TopDir(f.file->path)) == 0) continue;
    for (const IncludeEdge& e : f.includes) {
      if (e.system) continue;
      bool bad = false;
      std::vector<std::string> chain;
      const auto it = ctx.by_path.find(e.target);
      if (it != ctx.by_path.end()) {
        bad = ComputeTaint(ctx, it->second, taints);
        if (bad) chain = taints[it->second].witness;
      } else if (ForbiddenDirs().count(TopDir(e.target)) != 0) {
        bad = true;
        chain = {e.target};
      }
      if (!bad) continue;
      std::string msg = "layering-protected '" + TopDir(f.file->path) +
                        "/' must not reach '" + TopDir(chain.back()) +
                        "/': include of \"" + e.target + "\"";
      if (chain.size() > 1) {
        msg += " (chain:";
        for (const std::string& hop : chain) msg += " " + hop;
        msg += ")";
      }
      ctx.Report(f, e.line, "layering", msg);
    }
  }
}

// ---------------------------------------------------------- determinism

bool DeterminismExempt(const std::string& path) {
  const std::string top = TopDir(path);
  // runtime/ is where wall clocks are implemented; sim/ and harness/ are
  // measurement/simulation infrastructure whose wall-clock use is the
  // point; util/time.h defines the virtual-time vocabulary itself.
  return top == "runtime" || top == "sim" || top == "harness" ||
         path == "util/time.h";
}

void RunDeterminism(LintCtx& ctx) {
  // Identifier tokens banned anywhere (types, engines, clocks).
  static const char* const kBannedTokens[] = {
      "chrono",       "random_device",         "mt19937",
      "mt19937_64",   "default_random_engine", "steady_clock",
      "system_clock", "high_resolution_clock", "sleep_for",
      "sleep_until",  "usleep",                "nanosleep",
  };
  // Identifier tokens banned when used as a call (followed by '(') and not
  // reached through member access.
  static const char* const kBannedCalls[] = {
      "time", "clock", "gettimeofday", "rand", "srand", "rand_r", "random",
      "drand48",
  };

  for (const FileCtx& f : ctx.files) {
    if (DeterminismExempt(f.file->path)) continue;
    const std::string& code = f.scrubbed.code;

    for (const char* token : kBannedTokens) {
      const std::string t(token);
      for (size_t pos = code.find(t); pos != std::string::npos;
           pos = code.find(t, pos + 1)) {
        if (!TokenAt(code, pos, t.size())) continue;
        ctx.Report(f, f.scrubbed.LineOf(pos), "determinism",
                   "'" + t +
                       "' is a wall-clock/ambient-randomness primitive; "
                       "protocol code must use runtime::Env time and RNG");
      }
    }
    for (const char* call : kBannedCalls) {
      const std::string t(call);
      for (size_t pos = code.find(t); pos != std::string::npos;
           pos = code.find(t, pos + 1)) {
        if (!TokenAt(code, pos, t.size())) continue;
        const size_t after = SkipSpace(code, pos + t.size());
        if (after >= code.size() || code[after] != '(') continue;
        if (IsMemberAccess(code, pos)) continue;
        ctx.Report(f, f.scrubbed.LineOf(pos), "determinism",
                   "call to '" + t +
                       "()' bypasses runtime::Env; seed sweeps are only "
                       "reproducible when all time/entropy flows through Env");
      }
    }
  }
}

// ----------------------------------------------------------- codec-tags

bool IsCodecHeader(const std::string& path) {
  return path == "types/codec.h";
}

struct TagSite {
  std::string tag;
  size_t file_idx = 0;
  int line = 0;
};

/// Scans one file for Encoder/HashingEncoder construction sites. For each
/// site with a string-literal first argument, records the tag; for each
/// site without one, reports a finding (when `ctx` is non-null).
void ScanEncoderSites(const FileCtx& f, size_t file_idx,
                      std::vector<TagSite>* tags, LintCtx* ctx) {
  static const char* const kTypes[] = {"Encoder", "HashingEncoder"};
  const std::string& code = f.scrubbed.code;
  const std::string& orig = f.file->content;

  for (const char* type : kTypes) {
    const std::string t(type);
    for (size_t pos = code.find(t); pos != std::string::npos;
         pos = code.find(t, pos + 1)) {
      if (!TokenAt(code, pos, t.size())) continue;
      size_t i = SkipSpace(code, pos + t.size());
      if (i >= code.size()) continue;
      // `Encoder&`, `Encoder*`, `Encoder>` ... are uses of the type, not
      // construction sites.
      if (code[i] != '(' && code[i] != '{' && !IsIdentChar(code[i])) continue;
      if (IsIdentChar(code[i])) {
        // `Encoder enc(...)` / `types::HashingEncoder enc{...}`.
        while (i < code.size() && IsIdentChar(code[i])) ++i;
        i = SkipSpace(code, i);
        if (i >= code.size() || (code[i] != '(' && code[i] != '{')) continue;
      }
      const size_t args = SkipSpace(code, i + 1);
      const int line = f.scrubbed.LineOf(pos);
      if (args < code.size() && code[args] == '"') {
        // Read the literal from the original text (the scrubbed view blanks
        // literal bodies but preserves offsets).
        std::string tag;
        for (size_t j = args + 1; j < orig.size() && orig[j] != '"'; ++j) {
          if (orig[j] == '\\' && j + 1 < orig.size()) ++j;
          tag.push_back(orig[j]);
        }
        if (tags != nullptr) tags->push_back({tag, file_idx, line});
      } else if (ctx != nullptr) {
        ctx->Report(f, line, "codec-tags",
                    t + " constructed without a string-literal domain tag; "
                        "every digest must commit to its message kind at "
                        "the construction site");
      }
    }
  }
}

void RunCodecTags(LintCtx& ctx) {
  std::vector<TagSite> sites;
  for (size_t i = 0; i < ctx.files.size(); ++i) {
    const FileCtx& f = ctx.files[i];
    if (IsCodecHeader(f.file->path)) continue;
    ScanEncoderSites(f, i, &sites, &ctx);

    // Raw Append() is the unframed escape hatch around the Put* layer; it
    // is private to the encoders and may only appear inside types/codec.h.
    const std::string& code = f.scrubbed.code;
    const std::string t = "Append";
    for (size_t pos = code.find(t); pos != std::string::npos;
         pos = code.find(t, pos + 1)) {
      if (!TokenAt(code, pos, t.size())) continue;
      const size_t after = SkipSpace(code, pos + t.size());
      if (after >= code.size() || code[after] != '(') continue;
      if (!IsMemberAccess(code, pos)) continue;
      ctx.Report(f, f.scrubbed.LineOf(pos), "codec-tags",
                 "raw Append() outside types/codec.h voids the framed "
                 "no-collision encoding; use the Put* methods");
    }
  }

  // Domain tags must be globally unique: two kinds sharing a tag collapses
  // the domain separation that makes digests of different kinds collision
  // free.
  std::map<std::string, std::vector<const TagSite*>> by_tag;
  for (const TagSite& s : sites) by_tag[s.tag].push_back(&s);
  for (const auto& entry : by_tag) {
    if (entry.second.size() < 2) continue;
    std::string all_sites;
    for (const TagSite* s : entry.second) {
      if (!all_sites.empty()) all_sites += ", ";
      all_sites += ctx.files[s->file_idx].file->path + ":" +
                   std::to_string(s->line);
    }
    for (const TagSite* s : entry.second) {
      ctx.Report(ctx.files[s->file_idx], s->line, "codec-tags",
                 "domain tag \"" + entry.first +
                     "\" is used by more than one encoder site (" +
                     all_sites + "); tags must be globally unique");
    }
  }
}

// ------------------------------------------------------------ timer-tag

void RunTimerTag(LintCtx& ctx) {
  for (const FileCtx& f : ctx.files) {
    if (f.file->path == "util/timer_tag.h") continue;
    const std::string& code = f.scrubbed.code;
    const std::vector<size_t>& starts = f.scrubbed.line_starts;

    for (size_t l = 0; l < starts.size(); ++l) {
      const size_t begin = starts[l];
      const size_t end = l + 1 < starts.size() ? starts[l + 1] : code.size();
      bool shift_like = false;
      bool has_or = false;
      for (size_t i = begin; i + 1 < end; ++i) {
        if (code[i] == '|') {
          if (code[i + 1] == '|' || (i > begin && code[i - 1] == '|')) {
            continue;  // Logical ||.
          }
          has_or = true;
        }
        if (code[i] != '<' || code[i + 1] != '<') continue;
        size_t j = SkipSpace(code, i + 2);
        if (j < end && (code[j] >= '0' && code[j] <= '9')) {
          size_t k = j;
          while (k < end && code[k] >= '0' && code[k] <= '9') ++k;
          if (k < end && IsIdentChar(code[k])) {
            while (k < end && IsIdentChar(code[k])) ++k;  // 48ull etc.
          }
          const int amount = std::atoi(code.substr(j, k - j).c_str());
          // The timer-tag layout shifts the kind past the 48-bit payload;
          // anything in the 40..56 neighbourhood OR'd with a payload is
          // the PR 2 truncation bug class being re-implemented by hand.
          if (amount >= 40 && amount <= 56) shift_like = true;
        } else if (j < end && IsIdentChar(code[j])) {
          size_t k = j;
          // Walk a possibly qualified name (util::kTimerTagPayloadBits).
          while (k < end &&
                 (IsIdentChar(code[k]) ||
                  (code[k] == ':' && k + 1 < end && code[k + 1] == ':'))) {
            k += code[k] == ':' ? 2 : 1;
          }
          const std::string ident = code.substr(j, k - j);
          if (ident.find("TimerTagPayloadBits") != std::string::npos) {
            shift_like = true;
            has_or = true;  // Using the constant by hand is enough.
          }
        }
      }
      if (shift_like && has_or) {
        ctx.Report(f, static_cast<int>(l + 1), "timer-tag",
                   "ad-hoc timer-tag bit packing; use "
                   "util::PackTimerTag/TimerTagKind/TimerTagPayload so "
                   "64-bit payloads cannot be silently truncated");
      }
    }
  }
}

// ------------------------------------------------------------- threading

/// Directories whose code must stay single-threaded: protocol state is
/// mutated only on the owning node's loop thread (or the simulator's one
/// thread), and no handler work runs off that thread — protocol code never
/// spawns threads or shares synchronized state. client/
/// is deliberately NOT here: its blocking Call() API is cross-thread by
/// contract. runtime/, harness/, and sim/ implement the threading.
const std::set<std::string>& SingleThreadedDirs() {
  static const std::set<std::string> kDirs = {"core", "baselines"};
  return kDirs;
}

void RunThreading(LintCtx& ctx) {
  static const std::set<std::string> kThreadHeaders = {
      "thread",  "mutex",     "condition_variable", "shared_mutex",
      "atomic",  "future",    "semaphore",          "latch",
      "barrier", "stop_token"};
  for (const FileCtx& f : ctx.files) {
    if (SingleThreadedDirs().count(TopDir(f.file->path)) == 0) continue;
    for (const IncludeEdge& e : f.includes) {
      if (!e.system || kThreadHeaders.count(e.target) == 0) continue;
      ctx.Report(f, e.line, "threading",
                 "#include <" + e.target +
                     "> in single-threaded protocol code; replica state is "
                     "mutated only on its loop thread and no handler work "
                     "runs off it, so protocol code needs no threads or "
                     "shared synchronized state");
    }
  }
}

// --------------------------------------------------------------- sockets

/// Raw OS networking headers are confined to src/net/ (the socket / poll /
/// framing primitives) and src/runtime/ (the socket event loop). Everything
/// else — protocol code, harnesses, tools — reaches the network through
/// net::UdpSocket / net::TcpConn / net::PollSockets or, one level higher,
/// through runtime::Env. This keeps every recv/poll/sockaddr call path
/// behind the bounds-checked wrappers so hostile bytes can only enter
/// through the hardened decode pipeline.
const std::set<std::string>& SocketCapableDirs() {
  static const std::set<std::string> kDirs = {"net", "runtime"};
  return kDirs;
}

void RunSockets(LintCtx& ctx) {
  static const std::set<std::string> kSocketHeaders = {
      "sys/socket.h", "arpa/inet.h", "poll.h", "sys/epoll.h"};
  for (const FileCtx& f : ctx.files) {
    if (SocketCapableDirs().count(TopDir(f.file->path)) != 0) continue;
    for (const IncludeEdge& e : f.includes) {
      if (!e.system) continue;
      const bool banned = kSocketHeaders.count(e.target) != 0 ||
                          e.target.compare(0, 8, "netinet/") == 0;
      if (!banned) continue;
      ctx.Report(f, e.line, "sockets",
                 "#include <" + e.target +
                     "> outside net/ and runtime/; raw OS networking is "
                     "confined to the bounds-checked wrappers in "
                     "net/socket.h so hostile bytes can only enter through "
                     "the hardened decode pipeline");
    }
  }
}

// ------------------------------------------------------------- adversary

void RunAdversary(LintCtx& ctx) {
  for (const FileCtx& f : ctx.files) {
    if (ProtectedDirs().count(TopDir(f.file->path)) == 0) continue;
    const std::string& code = f.scrubbed.code;

    // The concrete scripted policy is harness wiring; naming it at all in
    // protocol code means an attack could be enacted outside any scenario.
    {
      const std::string t = "ScriptedAdversary";
      for (size_t pos = code.find(t); pos != std::string::npos;
           pos = code.find(t, pos + 1)) {
        if (!TokenAt(code, pos, t.size())) continue;
        ctx.Report(f, f.scrubbed.LineOf(pos), "adversary",
                   "ScriptedAdversary is harness-only; protocol code stays "
                   "honest-path and consults the installed "
                   "types::AdversaryPolicy through its pointer");
      }
    }

    // The interface may be *held* (a const pointer, nullptr = honest) but
    // never constructed, copied, or inherited from in protocol code.
    {
      const std::string t = "AdversaryPolicy";
      for (size_t pos = code.find(t); pos != std::string::npos;
           pos = code.find(t, pos + 1)) {
        if (!TokenAt(code, pos, t.size())) continue;
        const size_t after = SkipSpace(code, pos + t.size());
        if (after < code.size() && code[after] == '*') continue;
        ctx.Report(f, f.scrubbed.LineOf(pos), "adversary",
                   "AdversaryPolicy may appear in protocol code only as a "
                   "pointer ('AdversaryPolicy*'); constructing, copying, or "
                   "deriving from a policy belongs to harness/sim wiring");
      }
    }
  }
}

}  // namespace

// ----------------------------------------------------------- public API

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kRules = {
      "layering",  "determinism", "codec-tags", "timer-tag",
      "adversary", "threading",   "sockets"};
  return kRules;
}

std::vector<Finding> Lint(const std::vector<SourceFile>& files,
                          const Options& options) {
  LintCtx ctx;
  ctx.files.reserve(files.size());
  for (const SourceFile& f : files) {
    FileCtx fc;
    fc.file = &f;
    fc.scrubbed = Scrub(f.content);
    fc.includes = ParseIncludes(f.content);
    ctx.by_path.emplace(f.path, ctx.files.size());
    ctx.files.push_back(std::move(fc));
  }

  const auto enabled = [&options](const char* rule) {
    return options.rules.empty() ||
           std::find(options.rules.begin(), options.rules.end(), rule) !=
               options.rules.end();
  };
  if (enabled("layering")) RunLayering(ctx);
  if (enabled("determinism")) RunDeterminism(ctx);
  if (enabled("codec-tags")) RunCodecTags(ctx);
  if (enabled("timer-tag")) RunTimerTag(ctx);
  if (enabled("adversary")) RunAdversary(ctx);
  if (enabled("threading")) RunThreading(ctx);
  if (enabled("sockets")) RunSockets(ctx);

  std::sort(ctx.findings.begin(), ctx.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return ctx.findings;
}

std::vector<DomainTag> ExtractDomainTags(
    const std::vector<SourceFile>& files) {
  std::vector<DomainTag> out;
  std::vector<TagSite> sites;
  std::vector<FileCtx> ctxs(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    if (IsCodecHeader(files[i].path)) continue;
    ctxs[i].file = &files[i];
    ctxs[i].scrubbed = Scrub(files[i].content);
    ScanEncoderSites(ctxs[i], i, &sites, nullptr);
  }
  for (const TagSite& s : sites) {
    out.push_back({s.tag, files[s.file_idx].path, s.line});
  }
  std::sort(out.begin(), out.end(),
            [](const DomainTag& a, const DomainTag& b) {
              if (a.tag != b.tag) return a.tag < b.tag;
              if (a.path != b.path) return a.path < b.path;
              return a.line < b.line;
            });
  return out;
}

std::vector<SourceFile> LoadTree(const std::string& root_dir) {
  namespace fs = std::filesystem;
  const fs::path root(root_dir);
  if (!fs::is_directory(root)) {
    throw std::runtime_error("prestige_lint: not a directory: " + root_dir);
  }
  std::vector<SourceFile> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    files.push_back({fs::relative(entry.path(), root).generic_string(),
                     body.str()});
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

std::string FormatFinding(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace lint
}  // namespace prestige
