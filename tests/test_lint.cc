/**
 * @file
 * Tests for the skybyte_lint determinism auditor (src/lint):
 *
 *  - scanner: comment and string/char-literal blanking, multi-line
 *    block comments and raw strings, digit separators, and
 *    whole-identifier matching (vruntime must not trip the time ban)
 *  - each builtin rule family: a positive fixture, a negative fixture,
 *    a pragma-suppressed fixture, and a pragma rejected for missing
 *    justification
 *  - pragma hygiene: unknown rule names, allow(pragma), malformed
 *    pragmas, comment-only-line-above placement, and rule selectivity
 *  - baseline semantics: parse/format round-trip, multiset add/shrink
 *    diffs (new findings are fresh, fixed ones leave stale entries)
 *  - collectLintFiles: extension and directory filtering plus sorted,
 *    enumeration-order-independent output
 *
 * Fixture snippets are plain strings fed through scanSource() with
 * synthetic repo-relative paths, so the scope predicates see the same
 * shapes the tree lint does without touching the real tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace skybyte {
namespace {

/** Scan + lint one fixture file. */
std::vector<LintFinding>
lintSnippet(const std::string &path, const std::string &text)
{
    return lintFile(scanSource(path, text));
}

/** Findings of @p rule only. */
std::vector<LintFinding>
byRule(const std::vector<LintFinding> &findings, const std::string &rule)
{
    std::vector<LintFinding> out;
    for (const auto &f : findings)
        if (f.rule == rule)
            out.push_back(f);
    return out;
}

// --------------------------------------------------------------- scanner

TEST(LintScanner, LineCommentsAreBlanked)
{
    const SourceFile file =
        scanSource("src/core/x.cc", "int a; // std::rand() here\n");
    ASSERT_EQ(file.lines.size(), 1u);
    EXPECT_FALSE(containsIdentifier(file.lines[0].code, "rand"));
    EXPECT_TRUE(file.lines[0].code.find("int a;") != std::string::npos);
    EXPECT_TRUE(lintSnippet("src/core/x.cc",
                            "int a; // call std::rand() maybe\n")
                    .empty());
}

TEST(LintScanner, BlockCommentsSpanLines)
{
    const SourceFile file = scanSource(
        "src/core/x.cc", "int a; /* std::rand()\n time( \n */ int b;\n");
    ASSERT_EQ(file.lines.size(), 3u);
    EXPECT_FALSE(containsIdentifier(file.lines[0].code, "rand"));
    EXPECT_FALSE(containsIdentifier(file.lines[1].code, "time"));
    EXPECT_TRUE(file.lines[2].code.find("int b;") != std::string::npos);
}

TEST(LintScanner, StringAndCharLiteralBodiesAreBlanked)
{
    const SourceFile file = scanSource(
        "src/core/x.cc",
        "auto s = \"time(\"; auto c = 'r'; auto e = \"\\\"rand\\\"\";\n");
    ASSERT_EQ(file.lines.size(), 1u);
    EXPECT_FALSE(containsIdentifier(file.lines[0].code, "time"));
    EXPECT_FALSE(containsIdentifier(file.lines[0].code, "rand"));
}

TEST(LintScanner, RawStringsSpanLines)
{
    const SourceFile file = scanSource(
        "src/core/x.cc",
        "auto s = R\"(time(\nrand()\n)\"; int after;\n");
    ASSERT_EQ(file.lines.size(), 3u);
    EXPECT_FALSE(containsIdentifier(file.lines[0].code, "time"));
    EXPECT_FALSE(containsIdentifier(file.lines[1].code, "rand"));
    EXPECT_TRUE(file.lines[2].code.find("int after;")
                != std::string::npos);
}

TEST(LintScanner, DigitSeparatorIsNotACharLiteral)
{
    // If 100'000 opened a char literal, everything after it would be
    // blanked and the time() call would escape the scan.
    const SourceFile file = scanSource(
        "src/core/x.cc", "constexpr int n = 100'000; time(nullptr);\n");
    ASSERT_EQ(file.lines.size(), 1u);
    EXPECT_TRUE(containsIdentifier(file.lines[0].code, "time"));
}

TEST(LintScanner, WholeIdentifierMatchingOnly)
{
    EXPECT_TRUE(containsIdentifier("time(nullptr)", "time"));
    EXPECT_FALSE(containsIdentifier("vruntime(tid)", "time"));
    EXPECT_FALSE(containsIdentifier("timeout = 3", "time"));
    EXPECT_FALSE(containsIdentifier("time_stamp", "time"));
    EXPECT_TRUE(containsIdentifier("std::time(&t)", "time"));
}

TEST(LintScanner, IdentifierLinesReportsEveryLine)
{
    const SourceFile file = scanSource(
        "src/core/x.cc", "rand();\nint x;\nrand(); rand();\n");
    const auto lines = identifierLines(file, "rand");
    // One finding per line, not per occurrence.
    EXPECT_EQ(lines, (std::vector<std::size_t>{1, 3}));
}

// ---------------------------------------------------- rule: nondeterminism

TEST(LintRules, NondeterminismPositive)
{
    const auto findings = byRule(
        lintSnippet("src/core/x.cc", "int r = std::rand();\n"),
        "nondeterminism");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 1u);
    EXPECT_EQ(findings[0].code, "int r = std::rand();");
}

TEST(LintRules, NondeterminismNegativeOutsideScope)
{
    // tools/ may read the wall clock; the rule guards the simulated
    // world under src/.
    EXPECT_TRUE(byRule(lintSnippet("tools/x.cc",
                                   "auto t = time(nullptr);\n"),
                       "nondeterminism")
                    .empty());
}

TEST(LintRules, NondeterminismAllowlistedGetenv)
{
    EXPECT_TRUE(byRule(lintSnippet("src/sim/experiment.cc",
                                   "const char *v = getenv(\"X\");\n"),
                       "nondeterminism")
                    .empty());
    EXPECT_EQ(byRule(lintSnippet("src/core/x.cc",
                                 "const char *v = getenv(\"X\");\n"),
                     "nondeterminism")
                  .size(),
              1u);
}

TEST(LintRules, NondeterminismPragmaSuppressed)
{
    const auto findings = lintSnippet(
        "src/core/x.cc",
        "int r = std::rand(); // skybyte-lint: allow(nondeterminism) "
        "fixture justification\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintRules, PragmaWithoutJustificationRejected)
{
    const auto findings = lintSnippet(
        "src/core/x.cc",
        "int r = std::rand(); // skybyte-lint: allow(nondeterminism)\n");
    // The suppression is void AND the pragma itself is reported.
    ASSERT_EQ(byRule(findings, "nondeterminism").size(), 1u);
    ASSERT_EQ(byRule(findings, "pragma").size(), 1u);
}

// ----------------------------------------------- rule: unordered-container

TEST(LintRules, UnorderedContainerPositive)
{
    const auto findings = byRule(
        lintSnippet("src/cpu/x.cc",
                    "std::unordered_map<int, int> m;\n"),
        "unordered-container");
    ASSERT_EQ(findings.size(), 1u);
}

TEST(LintRules, UnorderedContainerNegativeOutsideScope)
{
    EXPECT_TRUE(byRule(lintSnippet("src/common/x.cc",
                                   "std::unordered_map<int, int> m;\n"),
                       "unordered-container")
                    .empty());
}

TEST(LintRules, UnorderedContainerPragmaOnLineAbove)
{
    const auto findings = lintSnippet(
        "src/cpu/x.cc",
        "// skybyte-lint: allow(unordered-container) fixture reason\n"
        "std::unordered_set<int> s;\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintRules, UnorderedContainerPragmaMissingJustification)
{
    const auto findings = lintSnippet(
        "src/cpu/x.cc",
        "// skybyte-lint: allow(unordered-container)   \n"
        "std::unordered_set<int> s;\n");
    EXPECT_EQ(byRule(findings, "unordered-container").size(), 1u);
    EXPECT_EQ(byRule(findings, "pragma").size(), 1u);
}

// ----------------------------------------------------- rule: raw-file-write

TEST(LintRules, RawFileWritePositive)
{
    const auto findings = byRule(
        lintSnippet("src/sim/x.cc", "std::ofstream out(path);\n"),
        "raw-file-write");
    ASSERT_EQ(findings.size(), 1u);
}

TEST(LintRules, RawFileWriteNegativeInFsCc)
{
    EXPECT_TRUE(byRule(lintSnippet("src/common/fs.cc",
                                   "std::ofstream out(path);\n"),
                       "raw-file-write")
                    .empty());
}

TEST(LintRules, RawFileWritePragmaSuppressed)
{
    EXPECT_TRUE(lintSnippet("src/sim/x.cc",
                            "// skybyte-lint: allow(raw-file-write) "
                            "fixture reason\n"
                            "FILE *f = fopen(path, \"w\");\n")
                    .empty());
}

TEST(LintRules, RawFileWritePragmaMissingJustification)
{
    const auto findings = lintSnippet(
        "src/sim/x.cc",
        "FILE *f = fopen(path, \"w\"); // skybyte-lint: "
        "allow(raw-file-write)\n");
    EXPECT_EQ(byRule(findings, "raw-file-write").size(), 1u);
    EXPECT_EQ(byRule(findings, "pragma").size(), 1u);
}

// ----------------------------------------------------- rule: hot-path-alloc

TEST(LintRules, HotPathAllocPositive)
{
    const auto findings = byRule(
        lintSnippet("src/core/ssd_controller.cc",
                    "auto *p = new Page();\n"),
        "hot-path-alloc");
    ASSERT_EQ(findings.size(), 1u);
}

TEST(LintRules, HotPathAllocNegativeOutsideRequestPath)
{
    EXPECT_TRUE(byRule(lintSnippet("src/core/migration.cc",
                                   "auto *p = new Page();\n"),
                       "hot-path-alloc")
                    .empty());
}

TEST(LintRules, HotPathAllocPragmaSuppressed)
{
    EXPECT_TRUE(lintSnippet("src/core/ssd_controller.cc",
                            "// skybyte-lint: allow(hot-path-alloc) "
                            "construction-time fixture\n"
                            "log_ = std::make_unique<WriteLog>(n);\n")
                    .empty());
}

TEST(LintRules, HotPathAllocPragmaMissingJustification)
{
    const auto findings = lintSnippet(
        "src/core/ssd_controller.cc",
        "// skybyte-lint: allow(hot-path-alloc)\n"
        "auto s = std::make_shared<int>(1);\n");
    EXPECT_EQ(byRule(findings, "hot-path-alloc").size(), 1u);
    EXPECT_EQ(byRule(findings, "pragma").size(), 1u);
}

// ---------------------------------------------------------- pragma hygiene

TEST(LintPragma, UnknownRuleNameIsAFinding)
{
    const auto findings = lintSnippet(
        "src/core/x.cc",
        "int a; // skybyte-lint: allow(no-such-rule) because fixture\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "pragma");
}

TEST(LintPragma, AllowPragmaItselfIsForbidden)
{
    const auto findings = lintSnippet(
        "src/core/x.cc",
        "int a; // skybyte-lint: allow(pragma) nice try\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "pragma");
}

TEST(LintPragma, MalformedPragmaIsAFinding)
{
    const auto findings = lintSnippet(
        "src/core/x.cc", "int a; // skybyte-lint: suppress everything\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "pragma");
}

TEST(LintPragma, SuppressesOnlyNamedRules)
{
    // The pragma waives the unordered-container finding but not the
    // nondeterminism one on the same line.
    const auto findings = lintSnippet(
        "src/cpu/x.cc",
        "std::unordered_map<int, int> m; int r = std::rand(); "
        "// skybyte-lint: allow(unordered-container) fixture reason\n");
    EXPECT_TRUE(byRule(findings, "unordered-container").empty());
    EXPECT_EQ(byRule(findings, "nondeterminism").size(), 1u);
}

TEST(LintPragma, CommentLineAboveOnlyCoversNextLine)
{
    const auto findings = lintSnippet(
        "src/cpu/x.cc",
        "// skybyte-lint: allow(unordered-container) fixture reason\n"
        "std::unordered_set<int> a;\n"
        "std::unordered_set<int> b;\n");
    const auto uc = byRule(findings, "unordered-container");
    ASSERT_EQ(uc.size(), 1u);
    EXPECT_EQ(uc[0].line, 3u);
}

TEST(LintPragma, CodeLineAboveDoesNotDonateItsPragma)
{
    // A trailing pragma belongs to its own (code) line; the next line
    // is not covered.
    const auto findings = lintSnippet(
        "src/cpu/x.cc",
        "std::unordered_set<int> a; // skybyte-lint: "
        "allow(unordered-container) fixture reason\n"
        "std::unordered_set<int> b;\n");
    const auto uc = byRule(findings, "unordered-container");
    ASSERT_EQ(uc.size(), 1u);
    EXPECT_EQ(uc[0].line, 2u);
}

TEST(LintPragma, MultipleRulesInOneAllowList)
{
    EXPECT_TRUE(lintSnippet("src/cpu/x.cc",
                            "// skybyte-lint: allow(unordered-container,"
                            "nondeterminism) fixture reason\n"
                            "std::unordered_map<int, int> m; "
                            "int r = std::rand();\n")
                    .empty());
}

TEST(LintPragma, BlockCommentProseAboutPragmasIsInert)
{
    // Doc comments describing the grammar must not parse as pragmas.
    EXPECT_TRUE(lintSnippet("src/core/x.cc",
                            "/* write skybyte-lint: allow(<rule>) "
                            "<justification> to waive */\n"
                            "int a;\n")
                    .empty());
}

// ----------------------------------------------------------- registry

TEST(LintRegistry, BuiltinRulesRegistered)
{
    for (const char *name : {"nondeterminism", "unordered-container",
                             "raw-file-write", "hot-path-alloc"}) {
        const LintRule *rule = findLintRule(name);
        ASSERT_NE(rule, nullptr) << name;
        EXPECT_EQ(rule->name, name);
        EXPECT_FALSE(rule->title.empty());
    }
    EXPECT_EQ(findLintRule("no-such-rule"), nullptr);
}

TEST(LintRegistry, RulesAreNameSorted)
{
    const auto rules = registeredLintRules();
    ASSERT_GE(rules.size(), 4u);
    EXPECT_TRUE(std::is_sorted(rules.begin(), rules.end(),
                               [](const LintRule *a, const LintRule *b) {
                                   return a->name < b->name;
                               }));
}

TEST(LintRegistry, DuplicateRegistrationThrows)
{
    LintRule dup;
    dup.name = "nondeterminism";
    dup.title = "duplicate";
    dup.inScope = [](const std::string &) { return false; };
    dup.check = [](const SourceFile &, std::vector<LintFinding> &) {};
    EXPECT_THROW(registerLintRule(std::move(dup)),
                 std::invalid_argument);
}

// ----------------------------------------------------------- baseline

TEST(LintBaselineTest, KeyAndRoundTrip)
{
    LintFinding f;
    f.rule = "nondeterminism";
    f.file = "src/core/x.cc";
    f.line = 7;
    f.code = "int r = std::rand();";
    EXPECT_EQ(baselineKey(f),
              "nondeterminism\tsrc/core/x.cc\tint r = std::rand();");

    const std::string text = formatLintBaseline({f, f});
    const LintBaseline parsed = parseLintBaseline(text);
    ASSERT_EQ(parsed.entries.size(), 1u);
    EXPECT_EQ(parsed.entries.at(baselineKey(f)), 2u);
}

TEST(LintBaselineTest, ParseSkipsCommentsAndRejectsBadLines)
{
    const LintBaseline parsed = parseLintBaseline(
        "# header\n\nrule\tfile.cc\tsome code\n");
    ASSERT_EQ(parsed.entries.size(), 1u);
    EXPECT_THROW(parseLintBaseline("no tabs here\n"),
                 std::invalid_argument);
}

TEST(LintBaselineTest, NewFindingIsFresh)
{
    LintFinding f;
    f.rule = "r";
    f.file = "f.cc";
    f.code = "bad();";
    const BaselineDiff diff = diffAgainstBaseline({f}, LintBaseline{});
    ASSERT_EQ(diff.fresh.size(), 1u);
    EXPECT_TRUE(diff.stale.empty());
}

TEST(LintBaselineTest, GrandfatheredFindingIsClean)
{
    LintFinding f;
    f.rule = "r";
    f.file = "f.cc";
    f.code = "bad();";
    LintBaseline base;
    base.entries[baselineKey(f)] = 1;
    const BaselineDiff diff = diffAgainstBaseline({f}, base);
    EXPECT_TRUE(diff.fresh.empty());
    EXPECT_TRUE(diff.stale.empty());
}

TEST(LintBaselineTest, FixedFindingLeavesStaleEntry)
{
    LintFinding f;
    f.rule = "r";
    f.file = "f.cc";
    f.code = "bad();";
    LintBaseline base;
    base.entries[baselineKey(f)] = 1;
    const BaselineDiff diff = diffAgainstBaseline({}, base);
    EXPECT_TRUE(diff.fresh.empty());
    ASSERT_EQ(diff.stale.size(), 1u);
    EXPECT_EQ(diff.stale[0], baselineKey(f));
}

TEST(LintBaselineTest, MultisetSemantics)
{
    LintFinding f;
    f.rule = "r";
    f.file = "f.cc";
    f.code = "bad();";
    LintBaseline base;
    base.entries[baselineKey(f)] = 2;

    // Three findings against two grandfathered: one is fresh.
    const BaselineDiff over = diffAgainstBaseline({f, f, f}, base);
    EXPECT_EQ(over.fresh.size(), 1u);
    EXPECT_TRUE(over.stale.empty());

    // One finding against two grandfathered: one entry is stale.
    const BaselineDiff under = diffAgainstBaseline({f}, base);
    EXPECT_TRUE(under.fresh.empty());
    EXPECT_EQ(under.stale.size(), 1u);
}

// ----------------------------------------------------- collectLintFiles

TEST(LintCollect, FiltersAndSorts)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "skybyte_lint_collect";
    fs::remove_all(root);
    fs::create_directories(root / "src" / "core");
    fs::create_directories(root / "tools");
    fs::create_directories(root / "tests");
    const auto touch = [](const fs::path &p) {
        std::ofstream(p.string()) << "int x;\n";
    };
    touch(root / "src" / "core" / "b.cc");
    touch(root / "src" / "a.h");
    touch(root / "src" / "notes.txt");
    touch(root / "tools" / "t.cc");
    touch(root / "tests" / "ignored.cc");

    const auto files = collectLintFiles(root.string());
    EXPECT_EQ(files,
              (std::vector<std::string>{"src/a.h", "src/core/b.cc",
                                        "tools/t.cc"}));
    fs::remove_all(root);

    EXPECT_THROW(collectLintFiles((root / "nope").string()),
                 std::runtime_error);
}

} // namespace
} // namespace skybyte
