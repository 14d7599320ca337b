// Line-rule pass — token-level checks over the shared model.
//
// The reproduction pipeline promises bitwise-identical datasets, models, and
// traces at any --jobs count.  That promise dies the day someone reintroduces
// rand(), a wall-clock seed, or an unordered-container walk that feeds ordered
// output.  These eleven rules are the machine-checked form of the contract;
// each keys off one token or include (comments and literals are already
// blanked by lex) plus the file's path-derived role:
//   no-rand, no-random-device, no-wallclock, obs-wallclock, no-build-stamp,
//   unordered-iter, raw-alloc, no-naked-artifact-write, no-naked-diagnostic,
//   include-hygiene, isa-intrinsics.
// obs-wallclock outside src/obs/ is allow-exempt: no annotation launders a
// chrono clock into the library.
#include <algorithm>
#include <array>

#include "analyze_passes.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::analyze {
namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

template <std::size_t N>
bool any_of(std::string_view text, const std::array<std::string_view, N>& set) {
  return std::find(set.begin(), set.end(), text) != set.end();
}

/// Emitter files: anything whose output is an ordered artifact (trace CSVs,
/// datasets, reports, rendered tables/charts, the CLI).  Iterating an
/// unordered container there silently couples the artifact to hash order.
constexpr std::array<std::string_view, 11> kEmitterMarks = {
    "/report/",    "trace_io",     "dataset",   "markdown",   "/util/csv",
    "/util/json",  "/util/table",  "/util/ascii_chart", "/tool/", "drbw_cli",
    "decision_tree",
};

constexpr std::array<std::string_view, 9> kRandFns = {
    "rand",    "srand",   "rand_r",  "drand48", "lrand48",
    "mrand48", "srand48", "random",  "srandom",
};
constexpr std::array<std::string_view, 7> kWallclockFns = {
    "time", "clock", "gettimeofday", "localtime", "gmtime", "ctime",
    "timespec_get",
};
constexpr std::array<std::string_view, 3> kBuildStamps = {
    "__DATE__", "__TIME__", "__TIMESTAMP__"};
constexpr std::array<std::string_view, 3> kChronoClocks = {
    "system_clock", "steady_clock", "high_resolution_clock"};
constexpr std::array<std::string_view, 4> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
constexpr std::array<std::string_view, 9> kAllocFns = {
    "malloc",        "calloc",         "realloc", "free", "aligned_alloc",
    "posix_memalign", "memalign",      "valloc",  "strdup",
};

/// Member access (`x.free(...)`, `p->free(...)`) targets the repo's own
/// methods, not the libc symbol; qualified calls (`std::rand`) stay banned.
bool member_access(const std::vector<Token>& tokens, std::size_t k) {
  if (k == 0) return false;
  if (tokens[k - 1].text == ".") return true;
  return k >= 2 && tokens[k - 1].text == ">" && tokens[k - 2].text == "-" &&
         tokens[k - 2].pos + 1 == tokens[k - 1].pos;
}

void check_tu(const Tu& tu, std::vector<Finding>& findings) {
  const FileRoles roles = file_roles(tu.rel);
  const std::vector<Token>& tokens = tu.lex.tokens;
  const auto report = [&](std::size_t line, const char* rule,
                          std::string_view subject, std::string message) {
    findings.push_back(make_finding(rule, tu.rel, line, std::string(subject),
                                    std::move(message)));
  };

  bool on_directive = false;  // the current line starts with '#'
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    const Token& t = tokens[k];
    if (k == 0 || tokens[k - 1].line != t.line) on_directive = t.text == "#";
    if (t.kind != Token::Kind::kIdent) continue;
    const std::string& w = t.text;
    const bool called = k + 1 < tokens.size() && tokens[k + 1].text == "(";
    const bool member = member_access(tokens, k);

    if (any_of(w, kRandFns) && called && !member) {
      report(t.line, "no-rand", w,
             "'" + w +
                 "' is banned: all randomness must flow through the seeded "
                 "streams in drbw/util/rng.hpp");
    }
    if (w == "random_device" && !roles.is_rng_home) {
      report(t.line, "no-random-device", w,
             "std::random_device outside util/rng.hpp breaks run-to-run "
             "reproducibility");
    }
    if (any_of(w, kWallclockFns) && called && !member && !on_directive) {
      report(t.line, "no-wallclock", w,
             "'" + w +
                 "(...)' reads the wall clock; seeds and any value that "
                 "reaches an artifact must be explicit (chrono timing of "
                 "benchmarks is fine — this symbol family is not)");
    }
    // Wall-clock types are confined to the obs wall-timing shim: outside
    // src/obs/ the finding is unconditional (no allow-comment laundering);
    // inside, the shim must still carry a justified allow.  Benches time
    // themselves by design and are exempt.
    if (any_of(w, kChronoClocks) && !roles.is_bench) {
      if (roles.is_obs_wall_home) {
        report(t.line, "obs-wallclock", w,
               "std::chrono::" + w +
                   " in the obs wall-timing shim needs a justified allow "
                   "comment (wall time is opt-in via --timing=wall only)");
      } else {
        report(t.line, "obs-wallclock", w,
               "std::chrono::" + w +
                   " outside src/obs/: wall-clock reads go through "
                   "obs::wall_now_micros() so golden artifacts stay "
                   "clock-free (no allow escape for this rule)");
        findings.back().allow_exempt = true;
      }
    }
    if (any_of(w, kBuildStamps)) {
      report(t.line, "no-build-stamp", w,
             w + " bakes build time into the binary");
    }
    if (any_of(w, kUnorderedContainers) && roles.is_emitter && !on_directive) {
      report(t.line, "unordered-iter", w,
             "unordered container in an emitter file: iteration order would "
             "leak hash order into ordered output (sort first, use std::map, "
             "or justify with an allow comment)");
    }
    if ((w == "new" || w == "delete") && !roles.in_mem_layer) {
      const bool deleted_fn =
          w == "delete" && k + 1 < tokens.size() && tokens[k + 1].text == ";";
      const bool operator_decl = k > 0 && tokens[k - 1].text == "operator";
      if (!deleted_fn && !operator_decl) {
        report(t.line, "raw-alloc", w,
               "raw '" + w +
                   "' outside mem/: use containers or smart pointers so "
                   "allocation stays trackable");
      }
    }
    if (any_of(w, kAllocFns) && called && !member && !roles.in_mem_layer) {
      report(t.line, "raw-alloc", w,
             "'" + w +
                 "(...)' outside mem/: the malloc family belongs to the "
                 "interception layer");
    }
    // Emitter files must not open output streams directly: artifacts go
    // through util::atomic_write_file / util::write_versioned_artifact
    // (write-temp-then-rename + checksummed header), so a crash or an
    // injected fault can never leave a partial file at the final path.
    if (w == "ofstream" && roles.is_emitter && !roles.is_artifact_home) {
      report(t.line, "no-naked-artifact-write", w,
             "std::ofstream in an emitter file: route artifact output "
             "through util::atomic_write_file or "
             "util::write_versioned_artifact so partial files cannot "
             "appear at the final path (or justify with an allow comment)");
    }
    // Ad-hoc stderr chatter bypasses the provenance layer: a diagnostic
    // printed with std::cerr never reaches the run manifest or the flight
    // recorder, so `drbw doctor` cannot see it.  Failures in library code
    // must flow through drbw::Error (the CLI front-end records it); only
    // the obs sinks, the tools' top-level drivers, the error primitives,
    // and self-reporting benches write stderr directly.
    if (w == "cerr" && !roles.is_diag_home && !roles.is_bench) {
      report(t.line, "no-naked-diagnostic", w,
             "std::cerr outside src/obs/, tools/, and util/error: throw "
             "drbw::Error or leave a flight-recorder breadcrumb so the run "
             "manifest and `drbw doctor` capture the diagnostic (or "
             "justify with an allow comment)");
    }
    if (w == "using" && roles.is_header && k + 1 < tokens.size() &&
        tokens[k + 1].text == "namespace") {
      report(t.line, "include-hygiene", "using namespace",
             "'using namespace' in a header leaks into every includer");
    }
  }

  // Intrinsics headers compile code for one ISA.  Only the CRC-32 kernel
  // file includes them: it enables the instructions per function and
  // dispatches at run time, so the rest of the tree runs on any CPU.
  if (!roles.is_isa_home) {
    for (const IncludeDirective& inc : tu.lex.includes) {
      if (inc.angled &&
          (ends_with(inc.path, "intrin.h") || inc.path == "arm_neon.h")) {
        report(inc.line, "isa-intrinsics", inc.path,
               "ISA intrinsics outside src/obs/crc32.cpp: keep "
               "instruction-set code in the one run-time dispatched file");
      }
    }
  }

  if (roles.is_header &&
      tu.lex.blanked.find("#pragma once") == std::string::npos) {
    report(1, "include-hygiene", "#pragma once",
           "header is missing '#pragma once'");
  }
  // Public headers may include only "drbw/..." (quoted, full path) and
  // system headers; <drbw/...> and relative quotes break self-containment
  // conventions and the install layout.
  if (!roles.is_public_header) return;
  for (const IncludeDirective& inc : tu.lex.includes) {
    const bool project = starts_with(inc.path, "drbw/");
    if (!inc.angled && !project) {
      report(inc.line, "include-hygiene", inc.path,
             "public headers must include project headers as \"drbw/...\"");
    }
    if (inc.angled && project) {
      report(inc.line, "include-hygiene", inc.path,
             "project headers use the quoted form: \"drbw/...\"");
    }
  }
}

}  // namespace

FileRoles file_roles(std::string_view rel) {
  FileRoles roles;
  roles.is_header = ends_with(rel, ".hpp") || ends_with(rel, ".h");
  roles.is_public_header = roles.is_header && contains(rel, "include/drbw/");
  roles.in_mem_layer = contains(rel, "/mem/") || starts_with(rel, "mem/");
  roles.is_rng_home = ends_with(rel, "util/rng.hpp");
  roles.is_artifact_home = contains(rel, "util/artifact");
  roles.is_obs_wall_home = contains(rel, "src/obs/");
  roles.is_isa_home = ends_with(rel, "src/obs/crc32.cpp");
  roles.is_bench = contains(rel, "bench/") || starts_with(rel, "bench");
  roles.is_diag_home = contains(rel, "src/obs/") || contains(rel, "tools/") ||
                       starts_with(rel, "tools") || contains(rel, "util/error");
  roles.is_emitter =
      std::any_of(kEmitterMarks.begin(), kEmitterMarks.end(),
                  [&](std::string_view mark) { return contains(rel, mark); });
  return roles;
}

std::vector<Finding> check_lint(const Model& model) {
  std::vector<Finding> findings;
  for (const Tu& tu : model.tus) check_tu(tu, findings);
  return findings;
}

}  // namespace drbw::analyze
