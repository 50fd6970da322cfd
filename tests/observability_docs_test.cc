// Docs-consistency check: every metric name registered under src/ must be
// documented in docs/OBSERVABILITY.md, so code and docs cannot disagree.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace innet {
namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Every string literal of the form "innet_<name>" in `text`. A literal that
// ends in '_' is a name prefix completed at run time (e.g. a per-decile
// family) and is checked as a prefix.
void CollectMetricLiterals(const std::string& text,
                           std::set<std::string>* names) {
  const std::string open = "\"innet_";
  for (size_t at = text.find(open); at != std::string::npos;
       at = text.find(open, at + 1)) {
    size_t end = at + 1;
    while (end < text.size() && IsNameChar(text[end])) ++end;
    if (end < text.size() && text[end] == '"') {
      names->insert(text.substr(at + 1, end - at - 1));
    }
  }
}

// True when `name` occurs in `doc` as a whole token (or, for a prefix
// ending in '_', as the start of one).
bool Documented(const std::string& doc, const std::string& name) {
  for (size_t at = doc.find(name); at != std::string::npos;
       at = doc.find(name, at + 1)) {
    bool left = at == 0 || !IsNameChar(doc[at - 1]);
    size_t after = at + name.size();
    bool right = name.back() == '_' || after == doc.size() ||
                 !IsNameChar(doc[after]);
    if (left && right) return true;
  }
  return false;
}

TEST(ObservabilityDocsTest, EveryRegisteredMetricIsDocumented) {
  const std::filesystem::path root(INNET_SOURCE_DIR);
  std::set<std::string> names;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root / "src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    CollectMetricLiterals(ReadFile(entry.path()), &names);
  }
  // Guard against a vacuous pass (wrong root, renamed prefix).
  ASSERT_GE(names.size(), 30u) << "scanned " << (root / "src");

  const std::string doc = ReadFile(root / "docs" / "OBSERVABILITY.md");
  ASSERT_FALSE(doc.empty());
  for (const std::string& name : names) {
    EXPECT_TRUE(Documented(doc, name))
        << name << " is registered in src/ but missing from "
        << "docs/OBSERVABILITY.md";
  }
}

}  // namespace
}  // namespace innet
