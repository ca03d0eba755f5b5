#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <mutex>
#include <stdexcept>

namespace skybyte {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string
trimCopy(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Marker every pragma comment carries. */
constexpr const char *kPragmaTag = "skybyte-lint:";

/**
 * Parse the pragma out of one comment's text (the text after the
 * comment marker). Returns false when the comment is not a pragma.
 */
bool
parsePragma(const std::string &comment, LintLine &line)
{
    const std::size_t tag = comment.find(kPragmaTag);
    if (tag == std::string::npos)
        return false;
    line.hasPragma = true;
    std::size_t pos = tag + std::string(kPragmaTag).size();
    while (pos < comment.size()
           && std::isspace(static_cast<unsigned char>(comment[pos])))
        ++pos;
    const std::string kAllow = "allow(";
    if (comment.compare(pos, kAllow.size(), kAllow) != 0) {
        line.pragmaMalformed = true;
        return true;
    }
    pos += kAllow.size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string::npos) {
        line.pragmaMalformed = true;
        return true;
    }
    std::string name;
    for (std::size_t i = pos; i <= close; ++i) {
        const char c = comment[i];
        if (c == ',' || c == ')') {
            name = trimCopy(name);
            if (name.empty()) {
                line.pragmaMalformed = true;
                return true;
            }
            line.pragmaRules.push_back(name);
            name.clear();
        } else {
            name.push_back(c);
        }
    }
    line.pragmaJustification = trimCopy(comment.substr(close + 1));
    return true;
}

/** Multi-line scanner state carried across newlines. */
enum class ScanState { Normal, BlockComment, RawString };

} // namespace

SourceFile
scanSource(std::string path, const std::string &text)
{
    SourceFile file;
    file.path = std::move(path);

    ScanState state = ScanState::Normal;
    std::string rawDelim; // closing delimiter of an open raw string

    std::size_t begin = 0;
    while (begin <= text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        LintLine line;
        line.raw = text.substr(begin, end - begin);
        if (!line.raw.empty() && line.raw.back() == '\r')
            line.raw.pop_back();
        line.code = line.raw;

        std::string &code = line.code;
        // Only // comments can carry pragmas (the documented grammar),
        // so block-comment prose ABOUT the pragma syntax never parses
        // as one.
        std::string comment; // accumulated line-comment text
        std::size_t i = 0;
        while (i < code.size()) {
            switch (state) {
            case ScanState::BlockComment: {
                const std::size_t close = code.find("*/", i);
                const std::size_t blankEnd =
                    close == std::string::npos ? code.size() : close + 2;
                for (std::size_t k = i; k < blankEnd; ++k)
                    code[k] = ' ';
                i = blankEnd;
                if (close != std::string::npos)
                    state = ScanState::Normal;
                break;
            }
            case ScanState::RawString: {
                const std::size_t close = code.find(rawDelim, i);
                const std::size_t blankEnd =
                    close == std::string::npos
                        ? code.size()
                        : close + rawDelim.size();
                for (std::size_t k = i; k < blankEnd; ++k)
                    code[k] = ' ';
                i = blankEnd;
                if (close != std::string::npos)
                    state = ScanState::Normal;
                break;
            }
            case ScanState::Normal: {
                const char c = code[i];
                if (c == '/' && i + 1 < code.size()
                    && code[i + 1] == '/') {
                    comment += code.substr(i + 2);
                    for (std::size_t k = i; k < code.size(); ++k)
                        code[k] = ' ';
                    i = code.size();
                    break;
                }
                if (c == '/' && i + 1 < code.size()
                    && code[i + 1] == '*') {
                    code[i] = ' ';
                    code[i + 1] = ' ';
                    i += 2;
                    state = ScanState::BlockComment;
                    break;
                }
                if (c == 'R' && i + 1 < code.size()
                    && code[i + 1] == '"'
                    && (i == 0 || !identChar(code[i - 1]))) {
                    // R"delim( ... )delim"
                    const std::size_t open = code.find('(', i + 2);
                    if (open != std::string::npos) {
                        rawDelim = ")" + code.substr(i + 2, open - i - 2)
                                   + "\"";
                        for (std::size_t k = i; k <= open; ++k)
                            code[k] = ' ';
                        i = open + 1;
                        state = ScanState::RawString;
                        break;
                    }
                    ++i;
                    break;
                }
                if (c == '\'' && i > 0 && identChar(code[i - 1])) {
                    // Digit separator (100'000) or literal suffix,
                    // not a char literal.
                    ++i;
                    break;
                }
                if (c == '"' || c == '\'') {
                    // Keep the quotes, blank the body. A quote with no
                    // closer on the line (should not happen outside
                    // raw strings) blanks to end of line.
                    std::size_t j = i + 1;
                    while (j < code.size()) {
                        if (code[j] == '\\' && j + 1 < code.size()) {
                            j += 2;
                            continue;
                        }
                        if (code[j] == c)
                            break;
                        ++j;
                    }
                    const std::size_t close =
                        j < code.size() ? j : code.size();
                    for (std::size_t k = i + 1; k < close; ++k)
                        code[k] = ' ';
                    i = close + 1;
                    break;
                }
                ++i;
                break;
            }
            }
        }
        if (!comment.empty())
            parsePragma(comment, line);
        file.lines.push_back(std::move(line));
        if (end == text.size())
            break;
        begin = end + 1;
    }
    // A trailing newline produces a final empty line; drop it so line
    // counts match what editors show.
    if (!file.lines.empty() && file.lines.back().raw.empty())
        file.lines.pop_back();
    return file;
}

bool
containsIdentifier(const std::string &code, const std::string &ident)
{
    if (ident.empty())
        return false;
    std::size_t pos = 0;
    while ((pos = code.find(ident, pos)) != std::string::npos) {
        const bool openOk = pos == 0 || !identChar(code[pos - 1]);
        const std::size_t after = pos + ident.size();
        const bool closeOk =
            after >= code.size() || !identChar(code[after]);
        if (openOk && closeOk)
            return true;
        pos = after;
    }
    return false;
}

std::vector<std::size_t>
identifierLines(const SourceFile &file, const std::string &ident)
{
    std::vector<std::size_t> lines;
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
        if (containsIdentifier(file.lines[i].code, ident))
            lines.push_back(i + 1);
    }
    return lines;
}

// ------------------------------------------------------------ registry

namespace detail {
/** Defined in rules.cc: the builtin rule families. */
void registerBuiltinLintRules();
} // namespace detail

namespace {

std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::map<std::string, LintRule> &
registryLocked()
{
    static std::map<std::string, LintRule> rules;
    return rules;
}

void
insertRule(LintRule rule)
{
    if (rule.name.empty())
        throw std::invalid_argument("lint rule name must not be empty");
    if (!rule.check) {
        throw std::invalid_argument("lint rule " + rule.name
                                    + " has no check");
    }
    auto [it, inserted] =
        registryLocked().emplace(rule.name, std::move(rule));
    if (!inserted) {
        throw std::invalid_argument("duplicate lint rule name: "
                                    + it->first);
    }
}

void
ensureBuiltins()
{
    static std::once_flag once;
    std::call_once(once, [] {
        std::lock_guard<std::mutex> lock(registryMutex());
        detail::registerBuiltinLintRules();
    });
}

} // namespace

namespace detail {

/** Registration hook shared with rules.cc (not public API). */
void
registerLintRuleUnlocked(LintRule rule)
{
    insertRule(std::move(rule));
}

} // namespace detail

void
registerLintRule(LintRule rule)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    insertRule(std::move(rule));
}

const LintRule *
findLintRule(const std::string &name)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    auto it = registryLocked().find(name);
    return it == registryLocked().end() ? nullptr : &it->second;
}

std::vector<const LintRule *>
registeredLintRules()
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<const LintRule *> rules;
    rules.reserve(registryLocked().size());
    for (const auto &[name, rule] : registryLocked())
        rules.push_back(&rule);
    return rules;
}

// -------------------------------------------------------------- runner

std::vector<LintFinding>
lintFile(const SourceFile &file)
{
    std::vector<LintFinding> findings;
    for (const LintRule *rule : registeredLintRules()) {
        if (rule->inScope && !rule->inScope(file.path))
            continue;
        rule->check(file, findings);
    }
    for (LintFinding &f : findings) {
        f.file = file.path;
        if (f.line >= 1 && f.line <= file.lines.size())
            f.code = trimCopy(file.lines[f.line - 1].raw);
    }

    // Effective pragma per line: its own, or a pragma on the
    // comment-only line directly above.
    auto pragmaFor = [&](std::size_t lineNo) -> const LintLine * {
        const LintLine &self = file.lines[lineNo - 1];
        if (self.hasPragma)
            return &self;
        if (lineNo >= 2) {
            const LintLine &above = file.lines[lineNo - 2];
            if (above.hasPragma
                && trimCopy(above.code).empty())
                return &above;
        }
        return nullptr;
    };

    std::vector<LintFinding> kept;
    for (LintFinding &f : findings) {
        const LintLine *pragma =
            f.line >= 1 && f.line <= file.lines.size()
                ? pragmaFor(f.line)
                : nullptr;
        const bool suppressed =
            pragma != nullptr && !pragma->pragmaMalformed
            && !pragma->pragmaJustification.empty()
            && std::find(pragma->pragmaRules.begin(),
                         pragma->pragmaRules.end(),
                         f.rule)
                   != pragma->pragmaRules.end();
        if (!suppressed)
            kept.push_back(std::move(f));
    }

    // Pragma hygiene: these findings are never themselves
    // pragma-suppressible.
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
        const LintLine &line = file.lines[i];
        if (!line.hasPragma)
            continue;
        auto emit = [&](const std::string &message) {
            LintFinding f;
            f.rule = "pragma";
            f.file = file.path;
            f.line = i + 1;
            f.code = trimCopy(line.raw);
            f.message = message;
            kept.push_back(std::move(f));
        };
        if (line.pragmaMalformed) {
            emit("malformed skybyte-lint pragma (expected: "
                 "skybyte-lint: allow(<rule>[,<rule>]) "
                 "<justification>)");
            continue;
        }
        if (line.pragmaJustification.empty()) {
            emit("allow pragma requires a justification after the "
                 "rule list");
        }
        for (const std::string &name : line.pragmaRules) {
            if (name == "pragma") {
                emit("the pragma rule itself cannot be allowed");
            } else if (findLintRule(name) == nullptr) {
                emit("unknown rule '" + name + "' in allow pragma");
            }
        }
    }

    std::sort(kept.begin(), kept.end(),
              [](const LintFinding &a, const LintFinding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return kept;
}

std::vector<LintFinding>
lintFiles(const std::vector<SourceFile> &files)
{
    std::vector<LintFinding> findings;
    for (const SourceFile &file : files) {
        std::vector<LintFinding> f = lintFile(file);
        findings.insert(findings.end(),
                        std::make_move_iterator(f.begin()),
                        std::make_move_iterator(f.end()));
    }
    return findings;
}

std::vector<std::string>
collectLintFiles(const std::string &root)
{
    namespace fs = std::filesystem;
    const fs::path base(root.empty() ? "." : root);
    if (!fs::is_directory(base / "src")) {
        throw std::runtime_error("not a skybyte tree (no src/ under "
                                 + base.string() + ")");
    }
    std::vector<std::string> paths;
    for (const char *top : {"src", "tools"}) {
        const fs::path dir = base / top;
        if (!fs::is_directory(dir))
            continue;
        for (const auto &entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".h" && ext != ".cc")
                continue;
            paths.push_back(
                fs::relative(entry.path(), base).generic_string());
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

// ------------------------------------------------------------ baseline

std::string
baselineKey(const LintFinding &finding)
{
    return finding.rule + "\t" + finding.file + "\t" + finding.code;
}

LintBaseline
parseLintBaseline(const std::string &text)
{
    LintBaseline baseline;
    std::size_t begin = 0;
    std::size_t lineNo = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(begin, end - begin);
        begin = end + 1;
        ++lineNo;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        const std::string trimmed = trimCopy(line);
        if (trimmed.empty() || trimmed[0] == '#')
            continue;
        // A key is rule \t file \t code; the code part may itself
        // contain anything but a newline.
        const std::size_t t1 = line.find('\t');
        const std::size_t t2 =
            t1 == std::string::npos ? std::string::npos
                                    : line.find('\t', t1 + 1);
        if (t1 == std::string::npos || t2 == std::string::npos
            || t1 == 0 || t2 == t1 + 1) {
            throw std::invalid_argument(
                "baseline line " + std::to_string(lineNo)
                + ": expected rule<TAB>file<TAB>code");
        }
        baseline.entries[line] += 1;
    }
    return baseline;
}

std::string
formatLintBaseline(const std::vector<LintFinding> &findings)
{
    std::map<std::string, std::size_t> counts;
    for (const LintFinding &f : findings)
        counts[baselineKey(f)] += 1;
    std::string out;
    out += "# skybyte_lint baseline: grandfathered findings, one\n";
    out += "# rule<TAB>file<TAB>code key per occurrence. New findings\n";
    out += "# fail the lint; when a listed finding is fixed its line\n";
    out += "# must be deleted (stale entries fail too), so this file\n";
    out += "# only shrinks. Regenerate: skybyte_lint --update-baseline\n";
    for (const auto &[key, count] : counts) {
        for (std::size_t i = 0; i < count; ++i) {
            out += key;
            out += '\n';
        }
    }
    return out;
}

BaselineDiff
diffAgainstBaseline(const std::vector<LintFinding> &findings,
                    const LintBaseline &baseline)
{
    BaselineDiff diff;
    std::map<std::string, std::size_t> seen;
    for (const LintFinding &f : findings) {
        const std::string key = baselineKey(f);
        auto it = baseline.entries.find(key);
        const std::size_t allowed =
            it == baseline.entries.end() ? 0 : it->second;
        if (++seen[key] > allowed)
            diff.fresh.push_back(f);
    }
    for (const auto &[key, count] : baseline.entries) {
        auto it = seen.find(key);
        const std::size_t current = it == seen.end() ? 0 : it->second;
        if (current < count)
            diff.stale.push_back(key);
    }
    return diff;
}

} // namespace skybyte
