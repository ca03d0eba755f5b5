/**
 * @file
 * skybyte_lint: source-level invariant checks for the determinism
 * discipline every PR's byte-identical SimResult fingerprints rest on.
 *
 * The simulator's correctness gates compare serialized reports byte
 * for byte, which only works while nothing nondeterministic leaks into
 * a result: no wall-clock or libc rand() in the simulated kernel, no
 * unordered-container iteration feeding serialization, no report
 * written without the common/fs.h temp+rename writers, no heap churn
 * sneaking back into the request path PR 4 made allocation-free. The
 * linter encodes those rules as a registry of source-level checks
 * (mirroring the sweep registry: every rule registered under a stable
 * name, shared by the CLI, the ctest self-lint and CI).
 *
 * The scanner is token-aware, not regex-grep: comments and the bodies
 * of string/char literals are blanked before matching, and banned
 * names match whole identifiers only — `vruntime(` does not trip the
 * `time(` ban, and a comment discussing std::rand is fine.
 *
 * Suppression is explicit and justified. A finding may be waived
 * per-line with
 *
 *     // skybyte-lint: allow(<rule>[,<rule>...]) <justification>
 *
 * either trailing the offending line or on a comment-only line
 * immediately above it. Pragmas are recognized in // comments only
 * (block-comment prose about the syntax is inert). The justification
 * text is mandatory: a pragma without one is itself a finding (rule
 * "pragma"), as is a pragma naming an unknown rule.
 *
 * Grandfathered findings live in a checked-in baseline file keyed by
 * (rule, file, exact code text) — stable across unrelated line-number
 * churn. New findings fail the build; entries whose finding disappears
 * must be deleted from the baseline (a stale entry is also a failure),
 * so the baseline can only shrink over time.
 */

#ifndef SKYBYTE_LINT_LINT_H
#define SKYBYTE_LINT_LINT_H

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace skybyte {

/** One source line, scanned. */
struct LintLine
{
    /** Verbatim text (no trailing newline). */
    std::string raw;
    /**
     * Matchable text: comments and string/char literal bodies are
     * replaced by spaces, so column positions still line up with raw.
     */
    std::string code;
    /** Rule names listed in an allow(...) pragma on this line. */
    std::vector<std::string> pragmaRules;
    /** Text after the allow(...) list; must be nonempty. */
    std::string pragmaJustification;
    /** The line carries a skybyte-lint pragma (well-formed or not). */
    bool hasPragma = false;
    /** Pragma present but unparsable (no allow(...) list). */
    bool pragmaMalformed = false;
};

/** One scanned file: repo-relative path plus its scanned lines. */
struct SourceFile
{
    /** Repo-relative path with '/' separators, e.g. "src/cpu/core.cc". */
    std::string path;
    std::vector<LintLine> lines;
};

/**
 * Scan @p text (the whole file) into lines with comments and literal
 * bodies blanked. Block comments and raw string literals may span
 * lines; the scanner carries that state across the split.
 */
SourceFile scanSource(std::string path, const std::string &text);

/** One rule violation. */
struct LintFinding
{
    std::string rule;
    std::string file;
    /** 1-based line number. */
    std::size_t line = 0;
    /** Trimmed verbatim line text: the baseline key component. */
    std::string code;
    std::string message;
};

/**
 * One registered invariant. `check` sees only files where
 * inScope(path) is true and appends findings; pragma suppression and
 * pragma validity are enforced centrally by lintFile(), not per rule.
 */
struct LintRule
{
    /** Registry key and the name used in allow(...) pragmas. */
    std::string name;
    /** One-line description shown by skybyte_lint --list. */
    std::string title;
    std::function<bool(const std::string &path)> inScope;
    std::function<void(const SourceFile &file,
                       std::vector<LintFinding> &out)>
        check;
};

/** @name Rule registry (sweep-registry idiom).
 * The builtin rule families register on first use; registerLintRule()
 * adds user-defined rules (tests) on top.
 * @{ */

/** Register @p rule. @throws std::invalid_argument on duplicate. */
void registerLintRule(LintRule rule);

/** Look up a rule; nullptr when unknown. */
const LintRule *findLintRule(const std::string &name);

/** All registered rules, name-sorted. */
std::vector<const LintRule *> registeredLintRules();
/** @} */

/**
 * Whole-identifier match: does @p code contain @p ident as a complete
 * identifier token (not as a substring of a longer one)?
 */
bool containsIdentifier(const std::string &code,
                        const std::string &ident);

/**
 * Findings of @p ident with line numbers, one per occurrence line.
 * Helper for the common "banned identifier" rule shape.
 */
std::vector<std::size_t> identifierLines(const SourceFile &file,
                                         const std::string &ident);

/**
 * Run every registered rule over @p file, apply allow(...) pragmas
 * (same line or the comment-only line above), and emit "pragma"
 * findings for pragmas without justification or naming unknown rules.
 * Findings come out in (line, rule) order.
 */
std::vector<LintFinding> lintFile(const SourceFile &file);

/** lintFile() over every file, concatenated in input order. */
std::vector<LintFinding> lintFiles(const std::vector<SourceFile> &files);

/**
 * The repo-relative paths the tree lint covers: every *.h / *.cc under
 * src/ and tools/ below @p root, sorted lexicographically so
 * scan order (and therefore output and baseline order) is independent
 * of directory enumeration order.
 * @throws std::runtime_error when @p root has no src/ directory.
 */
std::vector<std::string> collectLintFiles(const std::string &root);

/** Grandfathered findings: baseline key -> occurrence count. */
struct LintBaseline
{
    std::map<std::string, std::size_t> entries;
};

/** "rule<TAB>file<TAB>code": stable under line-number churn. */
std::string baselineKey(const LintFinding &finding);

/**
 * Parse a baseline file: '#' comments and blank lines skipped, one
 * key per line, duplicates accumulate.
 * @throws std::invalid_argument on a line that is not a valid key.
 */
LintBaseline parseLintBaseline(const std::string &text);

/** Serialize @p findings as a baseline file (sorted, deduplicated). */
std::string formatLintBaseline(const std::vector<LintFinding> &findings);

/** lintFiles() vs a baseline. */
struct BaselineDiff
{
    /** Findings not covered by the baseline: always a failure. */
    std::vector<LintFinding> fresh;
    /**
     * Baseline keys with fewer current findings than grandfathered
     * occurrences: the fixed ones must be deleted from the baseline
     * (shrink-only discipline), so these fail too.
     */
    std::vector<std::string> stale;
};

BaselineDiff diffAgainstBaseline(const std::vector<LintFinding> &findings,
                                 const LintBaseline &baseline);

} // namespace skybyte

#endif // SKYBYTE_LINT_LINT_H
