//! Perceived, language-agnostic measures: SLOC, LLOC, normalised lines.
//!
//! Following the SLOC counting standard of Nguyen et al. that the paper
//! adopts: whitespace is normalised (consecutive whitespace collapsed),
//! comments are removed using ranges known to the lexer, and what remains
//! is counted.  LLOC counts *logical* lines — "a for-loop header in C++
//! would be counted as a single line regardless of linebreak" — which
//! requires the lexical understanding the token stream provides.
//!
//! Pragma lines are deliberately preserved ("OpenMP pragmas are identified
//! and retained even after preprocessing and normalisation steps").

use crate::lex::{lex, LexOptions, TokKind, Token};
use crate::pp::render_into;
use crate::source::{FileId, Result};

/// Normalised source lines of a token stream: comments dropped, whitespace
/// collapsed to single separators, tokens grouped by their source line.
/// Works on both pre-preprocessing token streams (lex output) and
/// post-preprocessing streams ([`crate::pp::PpOutput::tokens`]).
pub fn normalized_lines(tokens: &[Token]) -> Vec<String> {
    normalized_lines_with_locs(tokens).into_iter().map(|(s, _)| s).collect()
}

/// Like [`normalized_lines`], additionally returning each normalised
/// line's source location `(file, line)` — the `+coverage` variants of the
/// perceived metrics filter lines through the coverage mask using these.
pub fn normalized_lines_with_locs(tokens: &[Token]) -> Vec<(String, (FileId, u32))> {
    let mut out: Vec<(String, (FileId, u32))> = Vec::new();
    // Each line is rendered into one reused buffer and copied out once, at
    // its exact length, when the next line starts.
    let mut line = String::new();
    let mut key: Option<(FileId, u32)> = None;
    for t in tokens {
        if matches!(t.kind, TokKind::Comment(_) | TokKind::Newline) {
            continue;
        }
        let k = (t.loc.file, t.loc.line);
        if key != Some(k) {
            if let Some(done) = key.replace(k) {
                out.push((line.as_str().into(), done));
                line.clear();
            }
        }
        if !line.is_empty() {
            line.push(' ');
        }
        render_into(&mut line, &t.kind);
    }
    if let Some(done) = key {
        out.push((line.as_str().into(), done));
    }
    out
}

/// Normalised lines straight from source text.
pub fn normalized_lines_of(text: &str, file: FileId, path: &str) -> Result<Vec<String>> {
    let toks = lex(text, file, path, LexOptions { keep_comments: true, keep_newlines: false })?;
    Ok(normalized_lines(&toks))
}

/// SLOC of a token stream: the number of normalised source lines (blank
/// and comment-only lines contribute nothing).
pub fn sloc(tokens: &[Token]) -> usize {
    normalized_lines(tokens).len()
}

/// SLOC straight from source text.
pub fn sloc_of(text: &str, file: FileId, path: &str) -> Result<usize> {
    Ok(normalized_lines_of(text, file, path)?.len())
}

/// LLOC of a token stream: logical lines.
///
/// Counted constructs:
/// * statement-terminating `;` outside parentheses (so the two semicolons
///   in a for-header do not count),
/// * control-flow headers: `for`, `while`, `if`, `else`, `do`, `switch`,
/// * retained pragma directives (one logical line each),
/// * `case`/`default` labels.
pub fn lloc(tokens: &[Token]) -> usize {
    let mut count = 0usize;
    let mut paren_depth = 0usize;
    for t in tokens {
        match &t.kind {
            TokKind::Punct("(") => paren_depth += 1,
            TokKind::Punct(")") => paren_depth = paren_depth.saturating_sub(1),
            TokKind::Punct(";") if paren_depth == 0 => count += 1,
            TokKind::Ident(id)
                if matches!(
                    id.as_str(),
                    "for" | "while" | "if" | "else" | "do" | "switch" | "case" | "default"
                ) =>
            {
                count += 1;
            }
            TokKind::Pragma(_) => count += 1,
            _ => {}
        }
    }
    count
}

/// LLOC straight from source text.
pub fn lloc_of(text: &str, file: FileId, path: &str) -> Result<usize> {
    let toks = lex(text, file, path, LexOptions::default())?;
    Ok(lloc(&toks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::{preprocess, PpOptions};
    use crate::source::SourceSet;

    fn nl(src: &str) -> Vec<String> {
        normalized_lines_of(src, FileId(0), "t.cpp").unwrap()
    }

    #[test]
    fn sloc_ignores_blanks_and_comments() {
        let src =
            "int a;\n\n// only a comment\nint b; /* trailing */\n/* whole\n   block */\nint c;";
        assert_eq!(sloc_of(src, FileId(0), "t.cpp").unwrap(), 3);
    }

    #[test]
    fn sloc_counts_linebreak_styles_differently() {
        // The known SLOC weakness the paper calls out: formatting changes
        // the count even though semantics are identical.
        let one = "for (int i = 0; i < n; i++) { a[i] = 0; }";
        let many = "for (int i = 0;\n     i < n;\n     i++)\n{\n  a[i] = 0;\n}";
        assert_eq!(sloc_of(one, FileId(0), "t.cpp").unwrap(), 1);
        assert_eq!(sloc_of(many, FileId(0), "t.cpp").unwrap(), 6);
    }

    #[test]
    fn lloc_is_stable_under_linebreaks() {
        let one = "for (int i = 0; i < n; i++) { a[i] = 0; }";
        let many = "for (int i = 0;\n     i < n;\n     i++)\n{\n  a[i] = 0;\n}";
        let l1 = lloc_of(one, FileId(0), "t.cpp").unwrap();
        let l2 = lloc_of(many, FileId(0), "t.cpp").unwrap();
        assert_eq!(l1, l2);
        assert_eq!(l1, 2); // the for header + the assignment
    }

    #[test]
    fn lloc_for_header_semicolons_excluded() {
        assert_eq!(lloc_of("for (i = 0; i < n; i++) f(i);", FileId(0), "t.cpp").unwrap(), 2);
        assert_eq!(lloc_of("a; b; c;", FileId(0), "t.cpp").unwrap(), 3);
    }

    #[test]
    fn whitespace_collapsed_in_normalised_lines() {
        let lines = nl("int     a   =    1;");
        assert_eq!(lines, vec!["int a = 1 ;"]);
    }

    #[test]
    fn pragma_lines_preserved_after_preprocessing() {
        let mut ss = SourceSet::new();
        let m =
            ss.add("t.cpp", "#pragma omp parallel for\nfor (int i = 0; i < n; i++) a[i] = 0;\n");
        let out = preprocess(&ss, m, &PpOptions::default()).unwrap();
        let lines = normalized_lines(&out.tokens);
        assert!(lines[0].contains("#pragma omp parallel for"), "{lines:?}");
        assert_eq!(lloc(&out.tokens), 3); // pragma + for + assignment
    }

    #[test]
    fn post_pp_sloc_includes_expanded_headers() {
        let mut ss = SourceSet::new();
        let m = ss.add("m.cpp", "#include \"big.h\"\nint main() { return 0; }");
        ss.add("big.h", "int a;\nint b;\nint c;\n");
        let out = preprocess(&ss, m, &PpOptions::default()).unwrap();
        // Pre-pp SLOC of m.cpp is 2 (include line + main); post-pp the
        // header bodies count instead of the include line.
        assert_eq!(sloc(&out.tokens), 4);
    }

    #[test]
    fn empty_input() {
        assert_eq!(sloc_of("", FileId(0), "t.cpp").unwrap(), 0);
        assert_eq!(lloc_of("", FileId(0), "t.cpp").unwrap(), 0);
        assert_eq!(sloc_of("// nothing\n\n", FileId(0), "t.cpp").unwrap(), 0);
    }
}
