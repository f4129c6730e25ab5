//! The command lines of `fgnvm-repro` and `fgnvm-trace`.
//!
//! Each binary's command line is one table, [`REPRO`] or [`TRACE`]. Every
//! flag is declared once in it, with its name, the placeholder its value
//! shows in the usage text (none for a switch), and the check the value
//! must pass when the command line is parsed, so a typo fails before
//! anything runs. Every command lists the flags it reads, and parsing
//! refuses any other flag with an error naming the command and the flags
//! it takes. [`Parsed`] holds the flags actually given, so a command tells
//! a flag left out from one given at its default value. The usage texts
//! are rendered from the same tables.

use std::path::PathBuf;
use std::str::FromStr;

use crate::serve::AdmissionPolicy;
use crate::study::{Study, STUDIES};

/// Checks a flag's value when the command line is parsed.
type Check = fn(flag: &str, value: &str) -> Result<(), String>;

/// One flag: its name, its value's placeholder in the usage text (`None`
/// for a switch), and the check its value must pass.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    check: Check,
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        check: any,
    }
}

const fn takes(name: &'static str, value: &'static str, check: Check) -> Flag {
    Flag {
        name,
        value: Some(value),
        check,
    }
}

fn any(_: &str, _: &str) -> Result<(), String> {
    Ok(())
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<(), String> {
    value
        .parse::<T>()
        .map(drop)
        .map_err(|_| format!("bad {flag} value: {value}"))
}

fn at_least_one(flag: &str, value: &str) -> Result<(), String> {
    match value.parse::<usize>() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(_) => Ok(()),
        Err(_) => Err(format!("bad {flag} value: {value}")),
    }
}

fn policy(flag: &str, value: &str) -> Result<(), String> {
    AdmissionPolicy::from_name(value)
        .map(drop)
        .ok_or_else(|| format!("bad {flag} value: {value} (want reject|block)"))
}

fn tenants(_: &str, value: &str) -> Result<(), String> {
    fgnvm_workloads::parse_tenants(value)
        .map(drop)
        .map_err(|e| e.to_string())
}

fn trace_seed(_: &str, value: &str) -> Result<(), String> {
    value
        .parse::<u64>()
        .map(drop)
        .map_err(|_| "bad seed".to_string())
}

/// What the error for a missing value says the flag needs.
fn needs(placeholder: &str) -> &str {
    match placeholder {
        "FILE" => "a file",
        "DIR" => "a directory",
        "CKPT" => "a checkpoint file",
        "SPEC" => "a spec string",
        choices if choices.contains('|') => choices,
        _ => "a value",
    }
}

/// One binary's command line.
#[derive(Debug)]
pub struct Cli {
    bin: &'static str,
    flags: &'static [Flag],
    /// Registered studies, each a command reading its own flags.
    studies: &'static [Study],
    /// Each other command as its usage line without placeholders: its
    /// name, its positional arguments, then every flag it reads.
    commands: &'static [&'static str],
}

/// `fgnvm-repro`: the studies and the commands around them.
pub static REPRO: Cli = Cli {
    bin: "fgnvm-repro",
    flags: &[
        takes("--ops", "N", number::<usize>),
        takes("--seed", "S", number::<u64>),
        switch("--csv"),
        switch("--md"),
        switch("--json"),
        takes("--out", "DIR", any),
        takes("--jobs", "N", number::<usize>),
        takes("--trace-out", "FILE", any),
        takes("--metrics-out", "FILE", any),
        takes("--cases", "N", number::<usize>),
        takes("--seeds", "N", at_least_one),
        takes("--ledger", "FILE", any),
        takes("--report", "FILE", any),
        takes("--horizon", "N", number::<u64>),
        takes("--checkpoint-every", "N", number::<u64>),
        takes("--checkpoint-dir", "DIR", any),
        takes("--resume", "CKPT", any),
        takes("--policy", "reject|block", policy),
        takes("--watchdog", "N", number::<u64>),
        switch("--kill-resume"),
        takes("--telemetry-out", "FILE", any),
        takes("--telemetry-every", "N", number::<u64>),
        takes("--prom-out", "FILE", any),
        switch("--live"),
        switch("--progress"),
        takes("--slo-read-p99", "N", number::<u64>),
        takes("--dump-flight", "FILE", any),
        switch("--audit"),
        takes("--tenants", "SPEC", tenants),
    ],
    studies: &STUDIES,
    commands: &[
        "observe [cfg] --ops --seed --csv --md --json --out --trace-out --metrics-out",
        "audit [a.cfg ...] --ops --seed --csv --md --json --out --metrics-out",
        "profile [a.cfg ...] --ops --seed --seeds --csv --md --json --out --metrics-out --ledger",
        "compare a.cfg b.cfg ... | base.jsonl cand.jsonl \
         --ops --seed --csv --md --json --out --jobs --report",
        "check [a.cfg ...] --ops --seed --csv --md --json --out",
        "fuzz [file.case] --seed --cases --kill-resume --tenants --out",
        "serve [cfg] --ops --seed --horizon --checkpoint-every --checkpoint-dir --resume --policy \
         --watchdog --telemetry-out --telemetry-every --prom-out --live --progress \
         --slo-read-p99 --dump-flight --audit --tenants --metrics-out",
        "fairness [cfg] --ops --seed --horizon --policy --telemetry-every --tenants",
        "regress --jobs",
        "all --ops --seed --csv --md --json --out --jobs",
    ],
};

/// `fgnvm-trace`: trace generation, inspection and replay.
pub static TRACE: Cli = Cli {
    bin: "fgnvm-trace",
    flags: &[
        takes("--seed", "S", trace_seed),
        takes("--design", "DESIGN", any),
        takes("--params", "FILE", any),
        switch("--viz"),
        takes("--viz-tiles", "BANK", number::<usize>),
        switch("--check"),
    ],
    studies: &[],
    commands: &[
        "list",
        "generate <profile> <ops> <out.trace> --seed",
        "info <file.trace>",
        "replay <file.trace> --design --params --viz --viz-tiles --check",
        "dump <design>",
    ],
};

impl Cli {
    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// Every command's name with the rest of its usage line, studies first.
    fn commands(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        let command = |c: &&'static str| c.split_once(' ').unwrap_or((*c, ""));
        self.studies
            .iter()
            .map(|s| (s.command, s.flags))
            .chain(self.commands.iter().map(command))
    }

    /// `bin name args [--flag VALUE] ...`: `rest` with each flag's
    /// placeholder.
    fn synopsis(&self, name: &str, rest: &str) -> String {
        let mut line = format!("{} {name}", self.bin);
        for word in rest.split_whitespace() {
            line += &match self.flag(word).map(|f| f.value) {
                Some(Some(value)) => format!(" [{word} {value}]"),
                Some(None) => format!(" [{word}]"),
                None => format!(" {word}"),
            };
        }
        line
    }

    /// The usage text: every study under the synopsis of the flags it
    /// reads (one synopsis per set of flags, in registry order of first
    /// use), then every other command with its flags.
    pub fn usage(&self) -> String {
        let mut text = format!("usage: {} <command> [arguments] [flags]\n", self.bin);
        for (i, study) in self.studies.iter().enumerate() {
            let flags = study.flags;
            if self.studies[..i].iter().any(|s| s.flags == flags) {
                continue;
            }
            text += &format!("\nstudies: {}", self.synopsis("<study>", flags));
            for s in self.studies[i..].iter().filter(|s| s.flags == flags) {
                text += &format!("\n  {:<12} {}", s.command, s.about);
            }
        }
        if !self.studies.is_empty() {
            text += "\n";
        }
        text += "\ncommands:";
        for (name, rest) in self.commands().skip(self.studies.len()) {
            text += &format!("\n  {}", self.synopsis(name, rest));
        }
        text
    }

    /// Parses the command line after the binary's name.
    ///
    /// # Errors
    ///
    /// Returns the message to print: the usage when no command is given,
    /// or what is wrong with the command line.
    pub fn parse(&'static self, args: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
        let mut args = args.into_iter();
        let given = args.next().ok_or_else(|| self.usage())?;
        let (name, rest) = self
            .commands()
            .find(|(name, _)| *name == given)
            .ok_or_else(|| format!("unknown command: {given}\n{}", self.usage()))?;
        let mut parsed = Parsed {
            command: name,
            args: Vec::new(),
            cli: self,
            given: Vec::new(),
        };
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                parsed.args.push(arg);
                continue;
            }
            let flag = match self.flag(&arg) {
                Some(flag) if rest.split_whitespace().any(|w| w == arg) => flag,
                known => {
                    let refusal = match known {
                        Some(_) => format!("{name} does not take {arg}"),
                        None => format!("unknown flag: {arg}"),
                    };
                    return Err(format!("{refusal}\nusage: {}", self.synopsis(name, rest)));
                }
            };
            let value = match flag.value {
                None => String::new(),
                Some(placeholder) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("{arg} needs {}", needs(placeholder)))?;
                    (flag.check)(flag.name, &value)?;
                    value
                }
            };
            parsed.given.push((flag.name, value));
        }
        Ok(parsed)
    }
}

/// A parsed command line.
#[derive(Debug)]
pub struct Parsed {
    /// The command.
    pub command: &'static str,
    /// Its positional arguments, in order.
    pub args: Vec<String>,
    cli: &'static Cli,
    /// Each flag given, with its value (empty for a switch).
    given: Vec<(&'static str, String)>,
}

impl Parsed {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value `flag` was last given.
    ///
    /// # Panics
    ///
    /// Panics if the binary declares no such flag.
    pub fn value(&self, flag: &str) -> Option<&str> {
        assert!(
            self.cli.flag(flag).is_some(),
            "{} declares no {flag}",
            self.cli.bin
        );
        self.given
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The value of a path flag.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The value of a number flag.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse as `T`: the reader asked for
    /// another type than the flag's check accepts.
    pub fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|value| {
            value
                .parse()
                .unwrap_or_else(|_| panic!("{flag} {value} passed its check"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parsing_records_the_flags_given() {
        let cli = REPRO
            .parse(words("serve a.cfg --ops 6000 --live --policy block b.cfg"))
            .expect("a serve command line");
        assert_eq!(cli.command, "serve");
        assert_eq!(cli.args, ["a.cfg", "b.cfg"]);
        // Given at the study default is still given.
        assert_eq!(cli.number::<u64>("--ops"), Some(6000));
        assert!(cli.has("--live") && !cli.has("--progress"));
        assert_eq!(cli.value("--policy"), Some("block"));
        assert_eq!(cli.number::<u64>("--horizon"), None);
        let last = REPRO
            .parse(words("fig4 --seed 1 --seed 2"))
            .expect("a study");
        assert_eq!(last.number::<u64>("--seed"), Some(2));
    }

    #[test]
    fn commands_refuse_flags_they_do_not_read() {
        for (line, refusal) in [
            ("all --horizon 1", "all does not take --horizon"),
            ("serve --jobs 2", "serve does not take --jobs"),
            ("fuzz --ops 10", "fuzz does not take --ops"),
            (
                "fairness --tenants a:poisson:gap=60 --telemetry-out f",
                "fairness does not take --telemetry-out",
            ),
            ("observe --bogus", "unknown flag: --bogus"),
            ("table1 --ops 10", "table1 does not take --ops"),
            ("table2 --seed 3", "table2 does not take --seed"),
            ("table2 --jobs 2", "table2 does not take --jobs"),
            ("maps --jobs 2", "maps does not take --jobs"),
            ("cores --jobs 2", "cores does not take --jobs"),
        ] {
            let error = REPRO.parse(words(line)).expect_err(line);
            let name = line.split(' ').next().expect("a command");
            let (_, rest) = REPRO.commands().find(|(n, _)| *n == name).expect(name);
            let usage = REPRO.synopsis(name, rest);
            assert_eq!(error, format!("{refusal}\nusage: {usage}"));
        }
        assert_eq!(
            REPRO.parse(words("fig4 --horizon 1")).expect_err("fig4"),
            "fig4 does not take --horizon\nusage: fgnvm-repro fig4 [--ops N] [--seed S] [--csv] \
             [--md] [--json] [--out DIR] [--jobs N]"
        );
        assert_eq!(
            TRACE
                .parse(words("info t.trace --seed 3"))
                .expect_err("info"),
            "info does not take --seed\nusage: fgnvm-trace info <file.trace>"
        );
        assert!(REPRO.parse(words("reliability --horizon 1")).is_ok());
    }

    #[test]
    fn values_are_checked_when_parsed() {
        for (line, error) in [
            ("fig4 --out", "--out needs a directory"),
            ("serve --resume", "--resume needs a checkpoint file"),
            ("serve --policy", "--policy needs reject|block"),
            ("serve --tenants", "--tenants needs a spec string"),
            ("profile --ledger", "--ledger needs a file"),
            ("profile --seeds -1", "bad --seeds value: -1"),
            ("serve --watchdog 1e6", "bad --watchdog value: 1e6"),
        ] {
            assert_eq!(REPRO.parse(words(line)).expect_err(line), error);
        }
        for (line, error) in [
            ("generate lbm_like 10 t.trace --seed x", "bad seed"),
            ("replay t.trace --params", "--params needs a file"),
        ] {
            assert_eq!(TRACE.parse(words(line)).expect_err(line), error);
        }
    }

    #[test]
    fn every_command_reads_declared_flags_and_every_flag_is_read() {
        for cli in [&REPRO, &TRACE] {
            let commands: Vec<_> = cli.commands().collect();
            for (i, (name, rest)) in commands.iter().enumerate() {
                assert!(commands[..i].iter().all(|(n, _)| n != name));
                for word in rest.split_whitespace().filter(|w| w.starts_with("--")) {
                    assert!(cli.flag(word).is_some(), "{name}: {word}");
                }
            }
            for (i, flag) in cli.flags.iter().enumerate() {
                assert!(cli.flags[..i].iter().all(|f| f.name != flag.name));
                let read = |(_, rest): &(_, &str)| rest.split_whitespace().any(|w| w == flag.name);
                assert!(commands.iter().any(read), "no command reads {}", flag.name);
            }
        }
        assert_eq!(REPRO.commands().count(), STUDIES.len() + 10);
    }

    #[test]
    fn usage_names_every_command_and_flag() {
        for cli in [&REPRO, &TRACE] {
            let usage = cli.usage();
            for (name, rest) in cli.commands() {
                assert!(
                    usage.contains(&format!("\n  {name:<12} "))
                        || usage.contains(&cli.synopsis(name, rest))
                );
            }
            for flag in cli.flags {
                assert!(usage.contains(flag.name), "usage lacks {}", flag.name);
            }
        }
    }

    /// Splits a shell command line into words, honouring quotes, up to the
    /// first comment, redirection or pipe.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote, mut in_word) =
            (Vec::new(), String::new(), None, false);
        for c in line.chars() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (Some(_), c) => word.push(c),
                (None, '#' | '>' | '|' | ';' | '&' | '`') => break,
                (None, c) if c.is_whitespace() => {
                    if in_word {
                        words.push(std::mem::take(&mut word));
                        in_word = false;
                    }
                }
                (None, c) => {
                    if c == '\'' || c == '"' {
                        quote = Some(c);
                    } else {
                        word.push(c);
                    }
                    in_word = true;
                }
            }
        }
        if in_word {
            words.push(word);
        }
        words
    }

    /// Every command line in `text` that runs `bin` (`cargo run ... --bin
    /// BIN -- ARGS` or `.../release/BIN ARGS`) or `ci/kill_resume.sh`, with
    /// comment markers and `\` continuations undone. A kill/resume call
    /// yields the one serve line with every flag its three legs add.
    fn command_lines(text: &str, bin: &str) -> Vec<Vec<String>> {
        let mut joined = String::new();
        for line in text.lines() {
            let line = line.trim_start().trim_start_matches('#').trim();
            match line.strip_suffix('\\') {
                Some(head) => joined += &format!("{head} "),
                None => joined += &format!("{line}\n"),
            }
        }
        let mut calls = Vec::new();
        for line in joined.lines() {
            for prefix in [format!("--bin {bin} -- "), format!("release/{bin} ")] {
                for (at, _) in line.match_indices(&prefix) {
                    calls.push(shell_words(&line[at + prefix.len()..]));
                }
            }
            if let Some((_, call)) = line.split_once("kill_resume.sh ") {
                let script = shell_words(call);
                // The synopses name their arguments in capitals.
                let example =
                    script.get(4).is_some_and(|w| w == "--") && script[1].parse::<u64>().is_ok();
                if bin != "fgnvm-repro" || !example {
                    continue;
                }
                let mut serve = script[5..].to_vec();
                serve.extend(words(&format!(
                    "--checkpoint-every {} --checkpoint-dir d --resume f",
                    script[2]
                )));
                for output in script[3].split(',') {
                    let (flag, ext) = output.split_once(':').expect("FLAG:EXT");
                    serve.extend([format!("--{flag}"), format!("out.{ext}")]);
                }
                calls.push(serve);
            }
        }
        calls
    }

    #[test]
    fn documented_command_lines_parse() {
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let tenants = ci
            .split_once("TENANTS: \"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .expect("ci.yml sets TENANTS")
            .0;
        let ci = ci.replace("\"$TENANTS\"", &format!("'{tenants}'"));
        let documents = [
            ("ci.yml", ci.as_str()),
            ("kill_resume.sh", include_str!("../../../ci/kill_resume.sh")),
            ("README.md", include_str!("../../../README.md")),
            ("TESTING.md", include_str!("../../../TESTING.md")),
            (
                "verify skill",
                include_str!("../../../.claude/skills/verify/SKILL.md"),
            ),
        ];
        let mut seen = 0;
        for (document, text) in documents {
            for cli in [&REPRO, &TRACE] {
                for call in command_lines(text, cli.bin) {
                    if let Err(e) = cli.parse(call.clone()) {
                        panic!("{document}: `{} {}` fails: {e}", cli.bin, call.join(" "));
                    }
                    seen += 1;
                }
            }
        }
        // The documents hold 48 today; far fewer means the search broke.
        assert!(seen > 40, "only {seen} documented command lines found");
    }
}
