//! Seeded workload inputs. Every module text, request and edit the
//! benchmark hands to `fenceplace` is a pure function of the seed: the
//! same seed gives byte-identical inputs, another seed other sizes, order,
//! shapes and edits, while the distribution each workload draws from
//! stays fixed so that runs on different seeds measure the same load.

use corpus::arbitrary::{build_sync, SyncIdiom, SyncShape};
use corpus::hash::{content_hash, hash_bytes, hex};
use corpus::synthetic_scaled;
use fence_ir::printer::print_module;
use std::sync::Arc;

/// splitmix64, one independent stream per (seed, purpose).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for one purpose (`salt`) of one seed.
    pub fn new(seed: u64, salt: &str) -> Rng {
        Rng(seed ^ content_hash(salt)[0].rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `base` scaled by a uniform factor in `[1 - frac, 1 + frac]`.
    pub fn jitter(&mut self, base: f64, frac: f64) -> usize {
        (base * (1.0 + frac * (2.0 * self.unit() - 1.0))).round() as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Where a module text came from, which decides how its report is
/// checked.
#[derive(Clone, Debug, PartialEq)]
pub enum Origin {
    /// A Table II kernel or corpus program, checked against the counts
    /// pinned in `tests/golden/pipeline.txt` under this label.
    Golden(String),
    /// `corpus::synthetic_scaled(n)`, checked against the seed stages.
    Synthetic(usize),
    /// A `corpus::arbitrary::build_sync` litmus module, checked against
    /// the seed stages and the certifier's expected verdicts.
    Litmus,
    /// Deliberately malformed: must come back `invalid_ir`.
    Malformed,
}

/// One generated module text.
#[derive(Clone, Debug)]
pub struct TextModule {
    pub origin: Origin,
    pub text: String,
}

/// The 9 automatic configs in the order `serve_edit` grows a module's
/// config list: every list a request carries is a prefix of this one.
pub const CONFIG_ORDER: [&str; 9] = [
    "Control:x86tso",
    "Pensieve:x86tso",
    "Address+Control:x86tso",
    "Control:weak",
    "Pensieve:weak",
    "Address+Control:weak",
    "Control:sc",
    "Pensieve:sc",
    "Address+Control:sc",
];

/// `cold_pack`: synthetic ladder rungs (accesses), geometric from 3000.
const COLD_RUNGS: usize = 8;
const COLD_BASE: f64 = 3000.0;
const COLD_RATIO: f64 = 1.4;
const COLD_MALFORMED: usize = 3;
/// `config_sweep`: mid-size synthetic modules, geometric from 1500.
const SWEEP_SYNTHETIC: usize = 6;
const SWEEP_BASE: f64 = 1500.0;
const SWEEP_RATIO: f64 = 1.32;
/// `certify_mix`: seeded litmus modules beside Matrix and Canneal.
const CERTIFY_LITMUS: usize = 24;
/// `serve_edit`: synthetic rungs per connection (about 4 KB to 64 KB of
/// text), spare texts per rung for new-module misses.
const SERVE_RUNGS: [f64; 5] = [58.0, 116.0, 232.0, 465.0, 930.0];
const SERVE_SPARES_PER_RUNG: usize = 4;
/// Size jitter: small, so that seeds differ in every size but not in the
/// load they put on the program.
const JITTER: f64 = 0.03;
const SERVE_JITTER: f64 = 0.02;

/// The 26 Table II kernels and corpus programs at the default build
/// parameters, as printed text, in canonical order.
pub fn golden_modules() -> Vec<TextModule> {
    let params = corpus::Params::default();
    corpus::manifest::full_fleet(&params)
        .into_iter()
        .map(|e| {
            let label = if e.name.starts_with("corpus:") {
                format!("{}@s{}", e.name, params.scale)
            } else {
                e.name.clone()
            };
            TextModule {
                origin: Origin::Golden(label),
                text: print_module(&e.module),
            }
        })
        .collect()
}

fn synthetic(n: usize) -> TextModule {
    TextModule {
        origin: Origin::Synthetic(n),
        text: print_module(&synthetic_scaled(n)),
    }
}

/// One size per rung of a geometric ladder, jittered, all distinct.
fn ladder(rng: &mut Rng, rungs: usize, base: f64, ratio: f64) -> Vec<usize> {
    let mut sizes: Vec<usize> = Vec::with_capacity(rungs);
    for k in 0..rungs {
        let mut n = rng.jitter(base * ratio.powi(k as i32), JITTER);
        while sizes.contains(&n) {
            n += 1;
        }
        sizes.push(n);
    }
    sizes
}

/// A small synthetic module broken in one of three seeded ways, each of
/// which the fleet's ingest or validation gate must quarantine as
/// `invalid_ir` without disturbing the pack's other modules.
pub fn malformed(rng: &mut Rng, index: usize) -> TextModule {
    let n = 60 + rng.below(120);
    let text = print_module(&synthetic_scaled(n)).replacen(
        &format!("module synthetic_{n}"),
        &format!("module broken_{index}"),
        1,
    );
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let pick = |rng: &mut Rng, lines: &[String], pred: &dyn Fn(&str) -> bool| {
        let hits: Vec<usize> = (0..lines.len()).filter(|&i| pred(&lines[i])).collect();
        hits[rng.below(hits.len())]
    };
    match rng.below(3) {
        // A block loses its terminator.
        0 => {
            let i = pick(rng, &lines, &|l| l.trim() == "ret");
            lines.remove(i);
        }
        // A branch to a block that does not exist.
        1 => {
            let i = pick(rng, &lines, &|l| l.trim_start().starts_with("br bb"));
            lines[i] = "  br bb999999".to_string();
        }
        // An instruction no parser knows.
        _ => {
            let i = pick(rng, &lines, &|l| l.trim_start().starts_with("store "));
            lines.insert(i, "  %999999 = frobnicate @g0".to_string());
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    TextModule {
        origin: Origin::Malformed,
        text,
    }
}

/// `cold_pack`: the synthetic ladder, the 26 golden modules and a few
/// malformed modules (the order of the pack file). The seed picks the
/// sizes and the order of the golden and malformed modules. The
/// synthetic modules sit at even intervals in one fixed order that never
/// puts two large ones next to each other: which large modules share the
/// admission window sets the peak RSS, and a seeded rotation of this
/// order spread the median `peak_rss_mb` by 0.23 over ten seeds.
pub fn cold_pack(seed: u64) -> Vec<TextModule> {
    let mut rng = Rng::new(seed, "cold_pack");
    let sizes = ladder(&mut rng, COLD_RUNGS, COLD_BASE, COLD_RATIO);
    // Largest, smallest, second largest, second smallest, ...
    let order: Vec<usize> = (0..COLD_RUNGS)
        .map(|k| {
            if k % 2 == 0 {
                COLD_RUNGS - 1 - k / 2
            } else {
                k / 2
            }
        })
        .collect();
    let mut rest = golden_modules();
    for i in 0..COLD_MALFORMED {
        rest.push(malformed(&mut rng, i));
    }
    rng.shuffle(&mut rest);
    let n = rest.len();
    let mut modules = Vec::with_capacity(COLD_RUNGS + n);
    let mut rest = rest.into_iter();
    for (k, &rung) in order.iter().enumerate() {
        modules.push(synthetic(sizes[rung]));
        modules.extend(
            rest.by_ref()
                .take((k + 1) * n / COLD_RUNGS - k * n / COLD_RUNGS),
        );
    }
    modules
}

/// `config_sweep`: the 26 golden modules plus mid-size synthetic
/// modules, in seeded order (one file each).
pub fn config_sweep(seed: u64) -> Vec<TextModule> {
    let mut rng = Rng::new(seed, "config_sweep");
    let mut modules: Vec<TextModule> = ladder(&mut rng, SWEEP_SYNTHETIC, SWEEP_BASE, SWEEP_RATIO)
        .into_iter()
        .map(synthetic)
        .collect();
    modules.extend(golden_modules());
    rng.shuffle(&mut modules);
    modules
}

/// A seeded message-passing or store-buffering litmus module.
pub fn litmus(rng: &mut Rng) -> TextModule {
    let idiom = if rng.below(2) == 0 {
        SyncIdiom::MessagePassing
    } else {
        SyncIdiom::StoreBuffering
    };
    let n_data = 1 + rng.below(3);
    let c0 = 1 + rng.below(99) as i64;
    let shape = SyncShape {
        idiom,
        n_data,
        consts: (0..n_data as i64).map(|i| c0 + i).collect(),
        pad_ops: rng.below(3),
    };
    TextModule {
        origin: Origin::Litmus,
        text: print_module(&build_sync(&shape)),
    }
}

/// `certify_mix`: seeded litmus modules plus Matrix and Canneal, in
/// seeded order (one file each).
pub fn certify_mix(seed: u64) -> Vec<TextModule> {
    let mut rng = Rng::new(seed, "certify_mix");
    let mut modules: Vec<TextModule> = (0..CERTIFY_LITMUS).map(|_| litmus(&mut rng)).collect();
    modules.extend(golden_modules().into_iter().filter(|m| {
        matches!(&m.origin, Origin::Golden(l) if l.starts_with("corpus:Matrix@") || l.starts_with("corpus:Canneal@"))
    }));
    rng.shuffle(&mut modules);
    modules
}

/// Content hash of a list of generated texts, in order.
pub fn inputs_hash<'a>(texts: impl IntoIterator<Item = &'a str>) -> String {
    let mut all = Vec::new();
    for t in texts {
        all.extend_from_slice(&content_hash(t)[0].to_le_bytes());
        all.extend_from_slice(&content_hash(t)[1].to_le_bytes());
    }
    hex(&hash_bytes(&all))
}

/// Rewrites one integer constant operand (`c<int>`) of one function
/// body to `value`, leaving every other function's text untouched. The
/// IR stays valid: a constant operand may hold any value. Returns `None`
/// when no function has a constant operand.
pub fn edit_one_function(text: &str, rng: &mut Rng, value: i64) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    // (first body line, one past the closing brace) per function.
    let mut funcs = Vec::new();
    let mut open = None;
    for (i, l) in lines.iter().enumerate() {
        if l.starts_with("fn ") {
            open = Some(i + 1);
        } else if *l == "}" {
            if let Some(start) = open.take() {
                funcs.push((start, i));
            }
        }
    }
    if funcs.is_empty() {
        return None;
    }
    let first = rng.below(funcs.len());
    for k in 0..funcs.len() {
        let (lo, hi) = funcs[(first + k) % funcs.len()];
        let mut sites = Vec::new();
        for (i, line) in lines.iter().enumerate().take(hi).skip(lo) {
            if line.starts_with("  ") {
                sites.extend(constant_tokens(line).into_iter().map(|r| (i, r)));
            }
        }
        if sites.is_empty() {
            continue;
        }
        let (i, (s, e)) = sites[rng.below(sites.len())];
        let mut out = String::with_capacity(text.len() + 16);
        for (j, line) in lines.iter().enumerate() {
            if j == i {
                out.push_str(&line[..s]);
                out.push_str(&format!("c{value}"));
                out.push_str(&line[e..]);
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        return Some(out);
    }
    None
}

/// Byte ranges of the `c<int>` constant operands of one instruction line.
fn constant_tokens(line: &str) -> Vec<(usize, usize)> {
    let code = line.split(';').next().unwrap_or("");
    let mut out = Vec::new();
    let mut start = None;
    for (i, ch) in code.char_indices().chain([(code.len(), ' ')]) {
        let delim = matches!(ch, ' ' | ',' | '(' | ')');
        match (start, delim) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                let tok = &code[s..i];
                if tok.len() > 1 && tok.starts_with('c') && tok[1..].parse::<i64>().is_ok() {
                    out.push((s, i));
                }
                start = None;
            }
            _ => {}
        }
    }
    out
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// What a `serve_edit` request asks of the daemon's cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Resend of unchanged text with unchanged configs.
    Hit,
    /// A one-function edit of a cached module (substrate donation).
    Edit,
    /// Cached text with one more config (the grow path).
    Grow,
    /// A new module, or one likely evicted.
    Miss,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Edit => "edit",
            Kind::Grow => "grow",
            Kind::Miss => "miss",
        }
    }
}

/// One `serve_edit` analyze request: module name, text, and the length
/// of its [`CONFIG_ORDER`] prefix.
#[derive(Clone, Debug)]
pub struct Request {
    pub kind: Kind,
    pub name: String,
    pub text: Arc<str>,
    pub configs: usize,
}

struct Tracked {
    name: String,
    text: Arc<str>,
    class: usize,
    configs: usize,
    last_used: u64,
}

/// The request stream is stratified in blocks, so that every seed puts
/// the same load on the daemon. Each block holds the kinds in exactly
/// these proportions (70% hits, 15% edits, 5% grows, 10% misses), and
/// the size classes in proportion to how many modules of the session's
/// starting working set each class holds: every module is equally
/// likely to be touched. No recorded editor traffic exists to weight
/// sizes by, so equal odds per module is the assumption. Class 0 is the
/// kernel and corpus modules (1 KB to 5 KB of text), class `k` the
/// synthetic modules of rung `SERVE_RUNGS[k - 1]`, up to about 64 KB.
/// A block is the shortest length that holds both mixes exactly (180
/// requests for 2 connections), and kinds and classes are paired at
/// random within it. Pairing every (kind, class) pair in exact
/// proportion instead needs blocks of 360, and spread the request rate
/// over ten seeds more (0.19 against 0.12), perhaps because a 20 s run
/// then ends in a larger share of partial block (not verified).
const BLOCK_KINDS: [(Kind, usize); 4] = [
    (Kind::Hit, 14),
    (Kind::Edit, 3),
    (Kind::Grow, 1),
    (Kind::Miss, 2),
];
/// Hits, edits and grows pick among this many most recently used modules
/// of their class, which the shared cache most likely holds; eviction
/// misses pick among the older ones.
const HOT: usize = 2;

/// One client's editing session: its own modules and a seeded, endless
/// request stream over them. Sessions own disjoint modules and share the
/// daemon's cache.
pub struct Session {
    conn: usize,
    rng: Rng,
    modules: Vec<Tracked>,
    /// Texts for new modules, per size class.
    spares: Vec<Vec<String>>,
    /// Modules per size class in the starting working set: the class
    /// weights of the request stream.
    class_weights: Vec<usize>,
    /// The rest of the current block, as (kind, class) slots.
    block: Vec<(Kind, usize)>,
    tick: u64,
}

impl Session {
    /// Session `conn` of `of`: its share of the golden modules and one
    /// synthetic module per size rung, plus spare texts for new modules.
    pub fn new(seed: u64, conn: usize, of: usize) -> Session {
        let mut shared = Rng::new(seed, "serve_edit.corpus");
        let mut golden = golden_modules();
        shared.shuffle(&mut golden);
        let mut rng = Rng::new(seed, &format!("serve_edit.session{conn}"));
        let mut texts: Vec<(usize, String)> = Vec::new();
        let mut spares = vec![Vec::new()];
        for (i, m) in golden.into_iter().enumerate() {
            if i % of == conn {
                texts.push((0, m.text));
            } else {
                spares[0].push(m.text);
            }
        }
        for (k, base) in SERVE_RUNGS.into_iter().enumerate() {
            texts.push((
                k + 1,
                print_module(&synthetic_scaled(rng.jitter(base, SERVE_JITTER))),
            ));
            spares.push(
                (0..SERVE_SPARES_PER_RUNG)
                    .map(|_| print_module(&synthetic_scaled(rng.jitter(base, SERVE_JITTER))))
                    .collect(),
            );
        }
        rng.shuffle(&mut texts);
        let mut class_weights = vec![0; spares.len()];
        for (class, _) in &texts {
            class_weights[*class] += 1;
        }
        let modules = texts
            .into_iter()
            .enumerate()
            .map(|(i, (class, text))| Tracked {
                name: format!("c{conn}-m{i:02}"),
                text: text.into(),
                class,
                configs: 1,
                last_used: 0,
            })
            .collect();
        Session {
            conn,
            rng,
            modules,
            spares,
            class_weights,
            block: Vec::new(),
            tick: 0,
        }
    }

    /// The priming requests: every module of the working set once.
    pub fn initial(&self) -> Vec<Request> {
        self.modules
            .iter()
            .map(|m| Request {
                kind: Kind::Miss,
                name: m.name.clone(),
                text: m.text.clone(),
                configs: m.configs,
            })
            .collect()
    }

    /// Every text the session starts from, for the inputs hash.
    pub fn texts(&self) -> impl Iterator<Item = &str> {
        self.modules
            .iter()
            .map(|m| &*m.text)
            .chain(self.spares.iter().flatten().map(String::as_str))
    }

    /// The (kind, class) of the next request: the next slot of the
    /// current block, refilled and reshuffled when it runs out.
    fn next_slot(&mut self) -> (Kind, usize) {
        if self.block.is_empty() {
            // The shortest block that holds both mixes exactly.
            let kind_total: usize = BLOCK_KINDS.iter().map(|&(_, n)| n).sum();
            let class_total: usize = self.class_weights.iter().sum();
            let len = kind_total / gcd(kind_total, class_total) * class_total;
            let mut kinds: Vec<Kind> = BLOCK_KINDS
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n * len / kind_total))
                .collect();
            let mut classes: Vec<usize> = self
                .class_weights
                .iter()
                .enumerate()
                .flat_map(|(c, &n)| std::iter::repeat_n(c, n * len / class_total))
                .collect();
            self.rng.shuffle(&mut kinds);
            self.rng.shuffle(&mut classes);
            self.block = kinds.into_iter().zip(classes).collect();
        }
        self.block.pop().expect("a refilled block")
    }

    /// A new module of `class`, from a spare text under a fresh header
    /// (which makes the text new to the cache).
    fn new_module(&mut self, class: usize) -> usize {
        let spares = &self.spares[class];
        let spare = &spares[self.rng.below(spares.len())];
        let name = format!("c{}-n{}", self.conn, self.tick);
        let header_end = spare.find('\n').unwrap_or(spare.len());
        let text = format!("module {name}{}", &spare[header_end..]);
        self.modules.push(Tracked {
            name,
            text: text.into(),
            class,
            configs: 1,
            last_used: 0,
        });
        self.modules.len() - 1
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        self.tick += 1;
        let (kind, class) = self.next_slot();
        // The class's modules, most recently used first.
        let mut order: Vec<usize> = (0..self.modules.len())
            .filter(|&i| self.modules[i].class == class)
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.modules[i].last_used));
        let hot = &order[..HOT.min(order.len())];
        let pick = |rng: &mut Rng, from: &[usize]| from[rng.below(from.len())];
        let (i, kind) = match kind {
            Kind::Hit => (pick(&mut self.rng, hot), Kind::Hit),
            Kind::Edit => {
                let i = pick(&mut self.rng, hot);
                let value = 1_000_000 * (self.conn as i64 + 1) + self.tick as i64;
                match edit_one_function(&self.modules[i].text, &mut self.rng, value) {
                    Some(text) => {
                        self.modules[i].text = text.into();
                        (i, Kind::Edit)
                    }
                    None => (i, Kind::Hit),
                }
            }
            Kind::Grow => {
                let growable: Vec<usize> = hot
                    .iter()
                    .copied()
                    .filter(|&i| self.modules[i].configs < CONFIG_ORDER.len())
                    .collect();
                if growable.is_empty() {
                    (pick(&mut self.rng, hot), Kind::Hit)
                } else {
                    let i = pick(&mut self.rng, &growable);
                    self.modules[i].configs += 1;
                    (i, Kind::Grow)
                }
            }
            Kind::Miss => {
                if order.len() > HOT && self.rng.below(2) == 0 {
                    (pick(&mut self.rng, &order[HOT..]), Kind::Miss)
                } else {
                    (self.new_module(class), Kind::Miss)
                }
            }
        };
        let m = &mut self.modules[i];
        m.last_used = self.tick;
        Request {
            kind,
            name: m.name.clone(),
            text: m.text.clone(),
            configs: m.configs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::hash::func_hashes;
    use fence_ir::parser::parse_module;

    fn all_texts(seed: u64) -> Vec<String> {
        let mut v: Vec<String> = cold_pack(seed).into_iter().map(|m| m.text).collect();
        v.extend(config_sweep(seed).into_iter().map(|m| m.text));
        v.extend(certify_mix(seed).into_iter().map(|m| m.text));
        let mut s = Session::new(seed, 0, 2);
        v.extend((0..200).map(|_| {
            let r = s.next_request();
            format!("{}|{}|{}|{}", r.kind.name(), r.name, r.configs, r.text)
        }));
        v
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(all_texts(7), all_texts(7));
    }

    #[test]
    fn different_seeds_give_different_sizes_order_and_edits() {
        let sizes = |seed| {
            cold_pack(seed)
                .into_iter()
                .filter_map(|m| match m.origin {
                    Origin::Synthetic(n) => Some(n),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(sizes(1), sizes(2));
        let mut a = sizes(1);
        let mut b = sizes(2);
        a.sort_unstable();
        b.sort_unstable();
        assert_ne!(a, b, "sizes differ, not just their order");
        assert_ne!(all_texts(1), all_texts(2));
        let shapes = |seed| {
            certify_mix(seed)
                .into_iter()
                .map(|m| m.text)
                .collect::<Vec<_>>()
        };
        assert_ne!(shapes(1), shapes(2));
    }

    #[test]
    fn edits_stay_valid_and_change_exactly_one_function() {
        for seed in [1, 2, 3] {
            let mut s = Session::new(seed, 1, 2);
            let mut last: std::collections::HashMap<String, Arc<str>> =
                s.initial().into_iter().map(|r| (r.name, r.text)).collect();
            let mut edits = 0;
            for _ in 0..400 {
                let r = s.next_request();
                if r.kind == Kind::Edit {
                    edits += 1;
                    let before = parse_module(&last[&r.name]).expect("previous version parses");
                    let after = parse_module(&r.text).expect("edited text parses");
                    assert!(fence_ir::verify_module_checked(&after).is_ok());
                    let (hb, ha) = (func_hashes(&before), func_hashes(&after));
                    assert_eq!(hb.len(), ha.len());
                    let changed = hb.iter().zip(&ha).filter(|(x, y)| x != y).count();
                    assert_eq!(changed, 1, "{}: one function changes", r.name);
                }
                last.insert(r.name.clone(), r.text.clone());
            }
            assert!(edits > 30, "the mix edits about 15% of requests");
        }
    }

    #[test]
    fn request_mix_is_roughly_as_specified() {
        let mut s = Session::new(5, 0, 2);
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            counts[s.next_request().kind as usize] += 1;
        }
        let share = |k: Kind| counts[k as usize] as f64 / 2000.0;
        assert!((share(Kind::Hit) - 0.70).abs() < 0.05, "{counts:?}");
        assert!((share(Kind::Edit) - 0.15).abs() < 0.03, "{counts:?}");
        assert!((share(Kind::Grow) - 0.05).abs() < 0.03, "{counts:?}");
        assert!((share(Kind::Miss) - 0.10).abs() < 0.03, "{counts:?}");
    }

    #[test]
    fn text_sizes_span_about_1k_to_64k() {
        let s = Session::new(3, 0, 2);
        let sizes: Vec<usize> = s.initial().iter().map(|r| r.text.len()).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(*lo < 2_000 && *hi > 55_000 && *hi < 75_000, "{lo}..{hi}");
    }

    #[test]
    fn malformed_modules_fail_the_gate() {
        let mut rng = Rng::new(11, "t");
        for i in 0..12 {
            let m = malformed(&mut rng, i);
            let ok = parse_module(&m.text)
                .map(|m| fence_ir::verify_module_checked(&m).is_ok())
                .unwrap_or(false);
            assert!(!ok, "malformed module {i} must not pass parse + verify");
            assert_eq!(
                corpus::split_corpus(&m.text).len(),
                1,
                "stays one pack chunk"
            );
        }
    }
}
