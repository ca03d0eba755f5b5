/**
 * @file
 * Determinism auditor for the skybyte tree:
 *
 *   skybyte_lint --list
 *       Enumerate the registered rule families.
 *   skybyte_lint [--root dir] [--baseline file] [--json] [paths...]
 *       Scan every *.h and *.cc under <root>/{src,tools} (or
 *       the given repo-relative paths), apply every registered rule,
 *       and compare against the baseline of grandfathered findings.
 *       Default baseline: <root>/lint_baseline.txt when it exists.
 *   skybyte_lint --update-baseline [--root dir] [--baseline file]
 *       Rewrite the baseline to exactly the current findings
 *       (write-temp-then-rename, like every other report writer).
 *
 * A finding not in the baseline fails the run; so does a baseline
 * entry whose finding no longer exists (delete the line — the
 * baseline only shrinks). Per-line suppression:
 *
 *   // skybyte-lint: allow(<rule>[,<rule>]) <justification>
 *
 * on the offending line or the comment-only line above it; the
 * justification text is mandatory.
 *
 * Exit codes (the CLI contract, also in the README):
 *   0  clean: no new findings, no stale baseline entries
 *   1  usage error
 *   2  runtime error (I/O, malformed baseline)
 *   3  new findings (not grandfathered in the baseline)
 *   4  stale baseline entries (fixed findings still listed)
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fs.h"
#include "lint/lint.h"

using namespace skybyte;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: skybyte_lint --list\n"
        "       skybyte_lint [--root dir] [--baseline file] [--json]"
        " [paths...]\n"
        "       skybyte_lint --update-baseline [--root dir]"
        " [--baseline file]\n"
        "exit codes: 0 clean; 1 usage; 2 error; 3 new finding(s);\n"
        "            4 stale baseline entr(ies)\n");
}

int
listRules()
{
    std::printf("%-20s %s\n", "rule", "title");
    for (const LintRule *rule : registeredLintRules())
        std::printf("%-20s %s\n", rule->name.c_str(),
                    rule->title.c_str());
    std::printf("%-20s %s\n", "pragma",
                "allow pragmas must be well-formed and justified");
    return 0;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Per-finding "is this one grandfathered?" flags, in finding order. */
std::vector<bool>
baselinedFlags(const std::vector<LintFinding> &findings,
               const LintBaseline &baseline)
{
    std::vector<bool> flags(findings.size(), false);
    std::map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const std::string key = baselineKey(findings[i]);
        auto it = baseline.entries.find(key);
        const std::size_t allowed =
            it == baseline.entries.end() ? 0 : it->second;
        flags[i] = ++seen[key] <= allowed;
    }
    return flags;
}

void
printJson(const std::vector<LintFinding> &findings,
          const std::vector<bool> &baselined,
          const BaselineDiff &diff)
{
    std::printf("{\n  \"findings\": [");
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const LintFinding &f = findings[i];
        std::printf(
            "%s\n    {\"rule\": \"%s\", \"file\": \"%s\", "
            "\"line\": %zu, \"code\": \"%s\", \"message\": \"%s\", "
            "\"baselined\": %s}",
            i == 0 ? "" : ",", jsonEscape(f.rule).c_str(),
            jsonEscape(f.file).c_str(), f.line,
            jsonEscape(f.code).c_str(), jsonEscape(f.message).c_str(),
            baselined[i] ? "true" : "false");
    }
    std::printf("%s],\n", findings.empty() ? "" : "\n  ");
    std::printf("  \"stale_baseline\": [");
    for (std::size_t i = 0; i < diff.stale.size(); ++i) {
        std::printf("%s\n    \"%s\"", i == 0 ? "" : ",",
                    jsonEscape(diff.stale[i]).c_str());
    }
    std::printf("%s],\n", diff.stale.empty() ? "" : "\n  ");
    std::printf("  \"total\": %zu,\n", findings.size());
    std::printf("  \"new\": %zu,\n", diff.fresh.size());
    std::printf("  \"stale\": %zu\n}\n", diff.stale.size());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string baselinePath;
    std::vector<std::string> paths;
    bool json = false;
    bool list = false;
    bool updateBaseline = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for "
                                                + arg);
                return argv[++i];
            };
            if (arg == "--list") {
                list = true;
            } else if (arg == "--root") {
                root = next();
            } else if (arg == "--baseline") {
                baselinePath = next();
            } else if (arg == "--json") {
                json = true;
            } else if (arg == "--update-baseline") {
                updateBaseline = true;
            } else if (arg == "-h" || arg == "--help") {
                usage();
                return 0;
            } else if (!arg.empty() && arg[0] != '-') {
                paths.push_back(arg);
            } else {
                throw std::invalid_argument("unknown option: " + arg);
            }
        }
        if (list)
            return listRules();

        const bool wholeTree = paths.empty();
        if (wholeTree)
            paths = collectLintFiles(root);
        std::vector<SourceFile> files;
        files.reserve(paths.size());
        for (const std::string &path : paths)
            files.push_back(
                scanSource(path, readFileText(root + "/" + path)));
        const std::vector<LintFinding> findings = lintFiles(files);

        if (baselinePath.empty()) {
            const std::string candidate = root + "/lint_baseline.txt";
            if (fileExists(candidate))
                baselinePath = candidate;
        }
        if (updateBaseline) {
            if (baselinePath.empty())
                baselinePath = root + "/lint_baseline.txt";
            writeFileAtomic(baselinePath,
                            formatLintBaseline(findings));
            std::fprintf(stderr,
                         "wrote %s (%zu grandfathered finding(s))\n",
                         baselinePath.c_str(), findings.size());
            return 0;
        }

        LintBaseline baseline;
        if (!baselinePath.empty())
            baseline = parseLintBaseline(readFileText(baselinePath));
        if (!wholeTree) {
            // Linting a subset: entries for files outside it are not
            // stale, they are just out of view this run.
            for (auto it = baseline.entries.begin();
                 it != baseline.entries.end();) {
                const std::string &key = it->first;
                const auto begin = key.find('\t') + 1;
                const std::string file =
                    key.substr(begin, key.find('\t', begin) - begin);
                if (std::find(paths.begin(), paths.end(), file)
                    == paths.end()) {
                    it = baseline.entries.erase(it);
                } else {
                    ++it;
                }
            }
        }
        const BaselineDiff diff =
            diffAgainstBaseline(findings, baseline);
        const std::vector<bool> baselined =
            baselinedFlags(findings, baseline);

        if (json) {
            printJson(findings, baselined, diff);
        } else {
            for (const LintFinding &f : diff.fresh) {
                std::fprintf(stderr, "%s:%zu: [%s] %s\n    %s\n",
                             f.file.c_str(), f.line, f.rule.c_str(),
                             f.message.c_str(), f.code.c_str());
            }
            for (const std::string &key : diff.stale) {
                std::fprintf(stderr,
                             "stale baseline entry (finding fixed — "
                             "delete the line): %s\n",
                             key.c_str());
            }
            std::fprintf(stderr,
                         "%zu file(s), %zu finding(s): %zu new, %zu "
                         "grandfathered, %zu stale baseline entr%s\n",
                         files.size(), findings.size(),
                         diff.fresh.size(),
                         findings.size() - diff.fresh.size(),
                         diff.stale.size(),
                         diff.stale.size() == 1 ? "y" : "ies");
        }
        if (!diff.fresh.empty())
            return 3;
        if (!diff.stale.empty())
            return 4;
        return 0;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "skybyte_lint: %s\n", e.what());
        usage();
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skybyte_lint: %s\n", e.what());
        return 2;
    }
}
