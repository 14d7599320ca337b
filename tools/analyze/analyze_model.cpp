#include "analyze_model.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "drbw/util/error.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::analyze {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Harvests `drbw-analyze: allow(<rule>) <reason>` from one comment's text.
void harvest_allow(std::string_view comment, std::size_t line,
                   std::vector<Allow>& out) {
  const std::size_t tag = comment.find("drbw-analyze:");
  if (tag == std::string_view::npos) return;
  std::string_view rest = comment.substr(tag);
  const std::size_t open = rest.find("allow(");
  if (open == std::string_view::npos) return;
  rest = rest.substr(open + 6);
  const std::size_t close = rest.find(')');
  if (close == std::string_view::npos) return;
  Allow allow;
  allow.line = line;
  allow.rule = trim(rest.substr(0, close));
  allow.reason = trim(rest.substr(close + 1));
  out.push_back(std::move(allow));
}

/// Parses `#include <...>` / `#include "..."` from one raw source line.
void harvest_include(std::string_view raw_line, std::size_t line,
                     std::vector<IncludeDirective>& out) {
  std::string_view s = raw_line;
  std::size_t i = 0;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  if (i >= s.size() || s[i] != '#') return;
  ++i;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  if (s.substr(i, 7) != "include") return;
  i += 7;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  if (i >= s.size()) return;
  const char open = s[i];
  const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (close == '\0') return;
  const std::size_t end = s.find(close, i + 1);
  if (end == std::string_view::npos) return;
  IncludeDirective inc;
  inc.path = std::string(s.substr(i + 1, end - i - 1));
  inc.angled = open == '<';
  inc.line = line;
  out.push_back(std::move(inc));
}

}  // namespace

bool meaningful_reason(std::string_view reason) {
  return reason.size() >= 3 &&
         std::any_of(reason.begin(), reason.end(), [](char c) {
           return std::isalpha(static_cast<unsigned char>(c)) != 0;
         });
}

Lexed lex(std::string_view content) {
  Lexed out;
  out.blanked.assign(content.size(), ' ');
  std::size_t line = 1;
  std::size_t line_start = 0;
  std::size_t i = 0;
  const std::size_t n = content.size();
  auto keep = [&](std::size_t at) { out.blanked[at] = content[at]; };
  auto end_line = [&](std::size_t at) {
    harvest_include(content.substr(line_start, at - line_start), line,
                    out.includes);
    line_start = at + 1;
    ++line;
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      keep(i);
      end_line(i);
      ++i;
      continue;
    }
    // Line comment: blank it, harvest an allow-annotation.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && content[i] != '\n') ++i;
      harvest_allow(content.substr(start, i - start), line, out.allows);
      continue;
    }
    // Block comment: blank it; an annotation anchors at the opening line.
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      const std::size_t start = i;
      const std::size_t start_line = line;
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') {
          keep(i);
          end_line(i);
        }
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      harvest_allow(content.substr(start, i - start), start_line, out.allows);
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && content[i + 1] == '"' &&
        (i == 0 || !ident_char(content[i - 1]))) {
      const std::size_t open_quote = i + 1;
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && content[j] != '(') delim += content[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t body = j + 1;
      const std::size_t end = content.find(closer, j);
      const std::size_t stop =
          end == std::string_view::npos ? n : end + closer.size();
      Literal lit;
      lit.pos = open_quote;
      lit.line = line;
      lit.text = std::string(
          content.substr(body, (end == std::string_view::npos ? n : end) -
                                   body));
      out.literals.push_back(std::move(lit));
      for (; i < stop; ++i) {
        if (content[i] == '\n') {
          keep(i);
          end_line(i);
        }
      }
      continue;
    }
    // String / char literal.  A ' preceded by an identifier char is a C++14
    // digit separator (6'000'000), not a literal.
    if (c == '"' || (c == '\'' && (i == 0 || !ident_char(content[i - 1])))) {
      const char quote = c;
      const std::size_t open_pos = i;
      const std::size_t open_line = line;
      std::string text;
      ++i;
      while (i < n && content[i] != quote) {
        if (content[i] == '\\' && i + 1 < n) {
          ++i;  // keep the escaped char, drop the backslash
          if (content[i] == 'n') {
            text += '\n';
          } else {
            text += content[i];
          }
          ++i;
          continue;
        }
        if (content[i] == '\n') {
          keep(i);
          end_line(i);
        }
        text += content[i];
        ++i;
      }
      if (i < n) ++i;  // closing quote
      if (quote == '"') {
        Literal lit;
        lit.pos = open_pos;
        lit.line = open_line;
        lit.text = std::move(text);
        out.literals.push_back(std::move(lit));
      }
      continue;
    }
    keep(i);
    ++i;
  }
  harvest_include(content.substr(line_start), line, out.includes);

  // Tokenize the blanked text: identifiers, numbers, single-char punctuation.
  const std::string& b = out.blanked;
  std::size_t tline = 1;
  for (std::size_t p = 0; p < b.size();) {
    const char c = b[p];
    if (c == '\n') {
      ++tline;
      ++p;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++p;
      continue;
    }
    Token t;
    t.pos = p;
    t.line = tline;
    if (ident_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = p;
      while (p < b.size() && ident_char(b[p])) ++p;
      t.kind = Token::Kind::kIdent;
      t.text = b.substr(start, p - start);
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::size_t start = p;
      // Digit separators (6'000'000) are part of the number: a quote glued
      // between digits was deliberately left unblanked by the pass above.
      while (p < b.size() &&
             (ident_char(b[p]) || b[p] == '.' ||
              (b[p] == '\'' && p + 1 < b.size() && ident_char(b[p + 1])))) {
        ++p;
      }
      t.kind = Token::Kind::kNumber;
      t.text = b.substr(start, p - start);
    } else {
      t.kind = Token::Kind::kPunct;
      t.text = b.substr(p, 1);
      ++p;
    }
    out.tokens.push_back(t);
  }
  return out;
}

LayerSpec LayerSpec::parse(std::string_view json_text,
                           const std::string& origin) {
  Json doc;
  try {
    doc = Json::parse(json_text);
  } catch (const Error& e) {
    throw Error(origin + ": " + e.what(), ErrorCode::kParse);
  }
  LayerSpec spec;
  const Json* layers = doc.find("layers");
  if (layers == nullptr || !layers->is_array() || layers->as_array().empty()) {
    throw Error(origin + ": layer spec needs a non-empty \"layers\" array",
                ErrorCode::kParse);
  }
  for (const Json& entry : layers->as_array()) {
    Layer layer;
    layer.name = entry.at("name").as_string();
    for (const Json& prefix : entry.at("paths").as_array()) {
      layer.prefixes.push_back(prefix.as_string());
    }
    spec.layers.push_back(std::move(layer));
  }
  if (const Json* exceptions = doc.find("exceptions")) {
    for (const Json& entry : exceptions->as_array()) {
      Exception ex;
      ex.from = entry.at("from").as_string();
      ex.to = entry.at("to").as_string();
      ex.reason = entry.at("reason").as_string();
      if (trim(ex.reason).empty()) {
        throw Error(origin + ": layer exception " + ex.from + " -> " + ex.to +
                        " needs a non-empty reason",
                    ErrorCode::kParse);
      }
      spec.exceptions.push_back(std::move(ex));
    }
  }
  return spec;
}

LayerSpec LayerSpec::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("drbw_analyze: cannot read layer spec " + path,
                ErrorCode::kNotFound);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), path);
}

int LayerSpec::rank_of(std::string_view rel_path) const {
  int best = -1;
  std::size_t best_len = 0;
  for (std::size_t r = 0; r < layers.size(); ++r) {
    for (const std::string& prefix : layers[r].prefixes) {
      if (starts_with(rel_path, prefix) && prefix.size() >= best_len) {
        best = static_cast<int>(r);
        best_len = prefix.size();
      }
    }
  }
  return best;
}

bool LayerSpec::excepted(std::string_view from, std::string_view to) const {
  for (const Exception& ex : exceptions) {
    if (starts_with(from, ex.from) && starts_with(to, ex.to)) return true;
  }
  return false;
}

const Tu* Model::find(std::string_view rel) const {
  const auto it = by_rel.find(std::string(rel));
  return it == by_rel.end() ? nullptr : &tus[it->second];
}

Model load_tree(const std::string& root,
                const std::vector<std::string>& subdirs, const LayerSpec& spec,
                const std::vector<std::string>& skip) {
  namespace fs = std::filesystem;
  Model model;
  model.root = root;
  std::vector<fs::path> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    const std::string rel = fs::relative(file, fs::path(root)).generic_string();
    bool skipped = false;
    for (const std::string& prefix : skip) {
      if (starts_with(rel, prefix)) {
        skipped = true;
        break;
      }
    }
    if (skipped) continue;
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      throw Error("drbw_analyze: cannot read " + file.string(),
                  ErrorCode::kIo);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Tu tu;
    tu.rel = rel;
    tu.layer = spec.rank_of(rel);
    tu.lex = lex(buffer.str());
    model.by_rel.emplace(tu.rel, model.tus.size());
    model.tus.push_back(std::move(tu));
  }
  return model;
}

std::string resolve_include(const Model& model, const Tu& from,
                            const IncludeDirective& inc) {
  if (starts_with(inc.path, "drbw/")) {
    const std::string rel = "include/" + inc.path;
    if (model.find(rel) != nullptr) return rel;
    return "";
  }
  if (inc.angled) return "";  // system header
  // Bare quoted include: resolve next to the including file.
  const std::size_t slash = from.rel.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : from.rel.substr(0, slash + 1);
  std::string rel = dir + inc.path;
  // Normalize a single leading "../" hop (fixture trees use shallow paths).
  while (true) {
    const std::size_t up = rel.find("/../");
    if (up == std::string::npos) break;
    const std::size_t prev = rel.rfind('/', up == 0 ? 0 : up - 1);
    if (prev == std::string::npos) {
      rel = rel.substr(up + 4);
    } else {
      rel = rel.substr(0, prev + 1) + rel.substr(up + 4);
    }
  }
  if (model.find(rel) != nullptr) return rel;
  return "";
}

}  // namespace drbw::analyze
