//! Simulated versions of the six real graphs of Table 2.
//!
//! The real dumps (Airline \[24\], CEOs \[37\], DBLP \[21\], Foodista \[18\],
//! NASA \[17\], Nobel \[12\]) are not reachable offline, so each generator
//! reproduces the *structural profile* the paper reports and exploits:
//!
//! | graph    | what drives the experiments                                   |
//! |----------|---------------------------------------------------------------|
//! | Airline  | originally relational: single CFS, fixed single-valued numeric |
//! |          | properties, no links → **no derivations** (Exp. 1's baseline)  |
//! | CEOs     | heterogeneous: multi-valued nationality & company areas, paths |
//! |          | via company/politicalConnection, text, missing values, a       |
//! |          | Dos-Santos-style netWorth outlier                              |
//! | DBLP     | one big homogeneous CFS; only `year` is a direct dimension;    |
//! |          | titles yield keyword derivations; multi-valued authors         |
//! | Foodista | almost nothing numeric/direct; multi-valued ingredients and    |
//! |          | text make *all* aggregates derivation-born                     |
//! | NASA     | spacecraft/launch types, mass outliers per discipline,         |
//! |          | launch-site skew (Plesetsk/Baikonur), spacecraft/agency paths  |
//! | Nobel    | laureates with category/year/share, affiliation paths,         |
//! |          | multi-valued affiliations — many multi-valued attributes       |
//!
//! The injected outliers (Angola's netWorth, Plesetsk's launch counts,
//! Human-crew spacecraft mass…) are the ones Figure 6 surfaces, so the
//! qualitative experiments find the same stories.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spade_rdf::{vocab, Graph, Term};

/// Scale/seed knobs shared by all six generators.
#[derive(Clone, Copy, Debug)]
pub struct RealisticConfig {
    /// Number of primary facts (CEOs, papers, flights, …).
    pub scale: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RealisticConfig {
    fn default() -> Self {
        RealisticConfig { scale: 1_000, seed: 7 }
    }
}

/// A named simulated graph.
pub struct RealGraph {
    /// Dataset name as used in the paper's tables.
    pub name: &'static str,
    /// The generated triples.
    pub graph: Graph,
}

fn iri(ns: &str, local: impl std::fmt::Display) -> Term {
    Term::iri(format!("http://{ns}/{local}"))
}

const COUNTRIES: [&str; 16] = [
    "Angola", "Brazil", "France", "Lebanon", "Nigeria", "USA", "Japan", "Germany", "India",
    "China", "Italy", "Spain", "Mexico", "Canada", "Kenya", "Poland",
];
const AREAS: [&str; 8] = [
    "Automotive",
    "Diamond",
    "Manufacturer",
    "Natural gas",
    "Banking",
    "Telecom",
    "Retail",
    "Software",
];
const ROLES: [&str; 4] = ["President", "Minister", "Senator", "Governor"];
const OCCUPATIONS: [&str; 6] =
    ["entrepreneur", "philanthropist", "shareholder", "investor", "engineer", "banker"];

/// CEOs-like graph: heterogeneous, multi-valued, path-rich (Figure 1 writ
/// large).
pub fn ceos(cfg: &RealisticConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();
    let ty = Term::iri(vocab::RDF_TYPE);
    let ns = "ceos";
    for i in 0..cfg.scale {
        let ceo = iri(ns, format!("ceo{i}"));
        g.insert(ceo.clone(), ty.clone(), iri(ns, "CEO"));
        g.insert(ceo.clone(), iri(ns, "name"), Term::lit(format!("CEO {i}")));
        // 1–3 nationalities (multi-valued dimension).
        let n_nat = 1 + rng.gen_range(0..3).min(rng.gen_range(0..3));
        let first_nat = rng.gen_range(0..COUNTRIES.len());
        for k in 0..n_nat {
            g.insert(
                ceo.clone(),
                iri(ns, "nationality"),
                Term::lit(COUNTRIES[(first_nat + k * 3) % COUNTRIES.len()]),
            );
        }
        // Gender missing for ~20% of CEOs.
        if rng.gen_bool(0.8) {
            g.insert(
                ceo.clone(),
                iri(ns, "gender"),
                Term::lit(if rng.gen_bool(0.3) { "Female" } else { "Male" }),
            );
        }
        if rng.gen_bool(0.85) {
            g.insert(ceo.clone(), iri(ns, "age"), Term::int(rng.gen_range(30..80)));
        }
        // Dos-Santos-style outlier: Angolan CEOs are far richer.
        let rich = COUNTRIES[first_nat] == "Angola";
        let net_worth = if rich {
            1.0e9 + rng.gen::<f64>() * 2.0e9
        } else {
            1.0e7 + rng.gen::<f64>() * 9.0e7
        };
        g.insert(ceo.clone(), iri(ns, "netWorth"), Term::num(net_worth.round()));
        g.insert(
            ceo.clone(),
            iri(ns, "occupation"),
            Term::lit(OCCUPATIONS[rng.gen_range(0..OCCUPATIONS.len())]),
        );
        // 1–3 companies, each with 1–2 areas and a headquarters.
        for c in 0..rng.gen_range(1..=3usize) {
            let company = iri(ns, format!("company{i}_{c}"));
            g.insert(ceo.clone(), iri(ns, "company"), company.clone());
            g.insert(company.clone(), ty.clone(), iri(ns, "Company"));
            g.insert(company.clone(), iri(ns, "name"), Term::lit(format!("Company {i}-{c}")));
            let a0 = rng.gen_range(0..AREAS.len());
            g.insert(company.clone(), iri(ns, "area"), Term::lit(AREAS[a0]));
            if rng.gen_bool(0.4) {
                g.insert(
                    company.clone(),
                    iri(ns, "area"),
                    Term::lit(AREAS[(a0 + 2) % AREAS.len()]),
                );
            }
            g.insert(
                company.clone(),
                iri(ns, "headquarters"),
                Term::lit(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]),
            );
            g.insert(
                company.clone(),
                iri(ns, "description"),
                Term::lit(format!(
                    "{} operations spanning {} markets worldwide",
                    AREAS[a0],
                    rng.gen_range(2..40)
                )),
            );
        }
        // Political connection for ~40%.
        if rng.gen_bool(0.4) {
            let pol = iri(ns, format!("pol{}", i % (cfg.scale / 4 + 1)));
            g.insert(ceo.clone(), iri(ns, "politicalConnection"), pol.clone());
            g.insert(pol.clone(), ty.clone(), iri(ns, "Politician"));
            g.insert(pol.clone(), iri(ns, "role"), Term::lit(ROLES[i % ROLES.len()]));
            g.insert(pol.clone(), iri(ns, "name"), Term::lit(format!("Politician {i}")));
        }
    }
    g
}

const DISCIPLINES: [&str; 6] =
    ["Human crew", "Microgravity", "Life sciences", "Repair", "Astronomy", "Communications"];
const LAUNCH_SITES: [&str; 8] = [
    "Plesetsk",
    "Baikonur",
    "Cape Canaveral",
    "Vandenberg Base",
    "Kourou",
    "Tanegashima",
    "Jiuquan",
    "Wallops",
];
const AGENCIES: [&str; 5] = ["USSR", "USA", "ESA", "JAXA", "CNSA"];

/// NASA-like graph: spacecraft + launches, with the Figure 6(b)/(c) skews.
pub fn nasa(cfg: &RealisticConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let mut g = Graph::new();
    let ty = Term::iri(vocab::RDF_TYPE);
    let ns = "nasa";
    let n_spacecraft = cfg.scale / 2;
    let mut soviet_craft = vec![false; n_spacecraft];
    #[allow(clippy::needless_range_loop)] // i names both nodes and the flag slot
    for i in 0..n_spacecraft {
        let sc = iri(ns, format!("spacecraft{i}"));
        g.insert(sc.clone(), ty.clone(), iri(ns, "Spacecraft"));
        g.insert(sc.clone(), iri(ns, "name"), Term::lit(format!("Craft {i}")));
        let disc = DISCIPLINES[rng.gen_range(0..DISCIPLINES.len())];
        g.insert(sc.clone(), iri(ns, "discipline"), Term::lit(disc));
        // Figure 6(c): Human crew / Microgravity / Life sciences / Repair
        // spacecraft are much heavier.
        let heavy = matches!(disc, "Human crew" | "Microgravity" | "Life sciences" | "Repair");
        let mass = if heavy {
            20_000.0 + rng.gen::<f64>() * 80_000.0
        } else {
            200.0 + rng.gen::<f64>() * 2_000.0
        };
        g.insert(sc.clone(), iri(ns, "mass"), Term::num(mass.round()));
        // Agency mix: USSR 40%, USA 30%, others 30% (the Cold-War-era
        // launch record that drives Figure 6(b)'s skew).
        let r: f64 = rng.gen();
        let agency_idx = if r < 0.4 {
            0
        } else if r < 0.7 {
            1
        } else {
            2 + rng.gen_range(0..AGENCIES.len() - 2)
        };
        soviet_craft[i] = agency_idx == 0; // AGENCIES[0] = "USSR"
        let agency = iri(ns, format!("agency{agency_idx}"));
        g.insert(sc.clone(), iri(ns, "agency"), agency.clone());
        g.insert(agency.clone(), ty.clone(), iri(ns, "Agency"));
        g.insert(agency.clone(), iri(ns, "name"), Term::lit(AGENCIES[agency_idx]));
    }
    for i in 0..cfg.scale {
        let launch = iri(ns, format!("launch{i}"));
        g.insert(launch.clone(), ty.clone(), iri(ns, "Launch"));
        // Figure 6(b): USSR launches concentrate on Plesetsk/Baikonur.
        let sc_idx = rng.gen_range(0..n_spacecraft.max(1));
        let soviet = soviet_craft.get(sc_idx).copied().unwrap_or(false);
        let site = if soviet && rng.gen_bool(0.9) {
            // Soviet launches concentrate on Plesetsk/Baikonur.
            LAUNCH_SITES[rng.gen_range(0..2)]
        } else if !soviet && rng.gen_bool(0.6) {
            // US launches concentrate on Cape Canaveral/Vandenberg.
            LAUNCH_SITES[2 + rng.gen_range(0..2)]
        } else {
            LAUNCH_SITES[4 + rng.gen_range(0..LAUNCH_SITES.len() - 4)]
        };
        g.insert(launch.clone(), iri(ns, "launchsite"), Term::lit(site));
        g.insert(launch.clone(), iri(ns, "spacecraft"), iri(ns, format!("spacecraft{sc_idx}")));
        g.insert(launch.clone(), iri(ns, "year"), Term::int(1957 + (i % 60) as i64));
        if rng.gen_bool(0.3) {
            g.insert(
                launch.clone(),
                iri(ns, "spacecraft"),
                iri(ns, format!("spacecraft{}", (sc_idx + 1) % n_spacecraft.max(1))),
            );
        }
    }
    g
}

const KEYWORD_POOL: [&str; 12] = [
    "database",
    "graph",
    "learning",
    "query",
    "neural",
    "distributed",
    "semantic",
    "stream",
    "optimization",
    "privacy",
    "index",
    "transaction",
];

/// DBLP-like graph: one homogeneous publication CFS; `year` is the only
/// direct dimension, everything else comes from derivations.
pub fn dblp(cfg: &RealisticConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(2));
    let mut g = Graph::new();
    let ty = Term::iri(vocab::RDF_TYPE);
    let ns = "dblp";
    let n_authors = (cfg.scale / 3).max(1);
    for i in 0..cfg.scale {
        let paper = iri(ns, format!("paper{i}"));
        g.insert(paper.clone(), ty.clone(), iri(ns, "Publication"));
        g.insert(paper.clone(), iri(ns, "year"), Term::int(1980 + (i % 40) as i64));
        let k1 = KEYWORD_POOL[rng.gen_range(0..KEYWORD_POOL.len())];
        let k2 = KEYWORD_POOL[rng.gen_range(0..KEYWORD_POOL.len())];
        g.insert(
            paper.clone(),
            iri(ns, "title"),
            Term::lit(format!("On {k1} methods for {k2} systems")),
        );
        g.insert(paper.clone(), iri(ns, "pages"), Term::int(rng.gen_range(4..30)));
        for _ in 0..rng.gen_range(1..=4usize) {
            let author = iri(ns, format!("author{}", rng.gen_range(0..n_authors)));
            g.insert(paper.clone(), iri(ns, "author"), author.clone());
            g.insert(author.clone(), iri(ns, "name"), Term::lit("Author".to_string()));
        }
    }
    g
}

const INGREDIENTS: [&str; 14] = [
    "flour",
    "sugar",
    "butter",
    "tomato",
    "basil",
    "garlic",
    "onion",
    "rice",
    "beans",
    "chili",
    "lemon",
    "salt",
    "olive oil",
    "cumin",
];

/// Foodista-like graph: text + multi-valued ingredients; no direct numeric
/// dimension — all interesting aggregates arise from derivations.
pub fn foodista(cfg: &RealisticConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(3));
    let mut g = Graph::new();
    let ty = Term::iri(vocab::RDF_TYPE);
    let ns = "food";
    for i in 0..cfg.scale {
        let recipe = iri(ns, format!("recipe{i}"));
        g.insert(recipe.clone(), ty.clone(), iri(ns, "Recipe"));
        g.insert(recipe.clone(), iri(ns, "title"), Term::lit(format!("Recipe {i}")));
        let n_ing = rng.gen_range(2..=8usize);
        let start = rng.gen_range(0..INGREDIENTS.len());
        for k in 0..n_ing {
            g.insert(
                recipe.clone(),
                iri(ns, "ingredient"),
                Term::lit(INGREDIENTS[(start + k) % INGREDIENTS.len()]),
            );
        }
        let text = if i % 3 == 0 {
            "Mélanger la farine et le beurre avec le sucre dans un bol"
        } else {
            "Mix the flour and the butter with the sugar in a bowl"
        };
        g.insert(recipe.clone(), iri(ns, "instructions"), Term::lit(text));
    }
    g
}

const NOBEL_CATEGORIES: [&str; 6] =
    ["Physics", "Chemistry", "Medicine", "Literature", "Peace", "Economics"];

/// Nobel-like graph: laureates with category/year/share and affiliation
/// paths; several multi-valued attributes.
pub fn nobel(cfg: &RealisticConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(4));
    let mut g = Graph::new();
    let ty = Term::iri(vocab::RDF_TYPE);
    let ns = "nobel";
    let n_univ = 40usize;
    for i in 0..cfg.scale {
        let laureate = iri(ns, format!("laureate{i}"));
        g.insert(laureate.clone(), ty.clone(), iri(ns, "Laureate"));
        g.insert(laureate.clone(), iri(ns, "name"), Term::lit(format!("Laureate {i}")));
        let cat = NOBEL_CATEGORIES[rng.gen_range(0..NOBEL_CATEGORIES.len())];
        g.insert(laureate.clone(), iri(ns, "category"), Term::lit(cat));
        g.insert(laureate.clone(), iri(ns, "year"), Term::int(1901 + (i % 120) as i64));
        g.insert(
            laureate.clone(),
            iri(ns, "share"),
            Term::int([1, 1, 2, 2, 3, 4][rng.gen_range(0..6)]),
        );
        if rng.gen_bool(0.9) {
            g.insert(
                laureate.clone(),
                iri(ns, "gender"),
                // Peace/Literature are far less male-dominated — a
                // skew the category × gender aggregate surfaces.
                Term::lit(
                    if matches!(cat, "Peace" | "Literature") && rng.gen_bool(0.35)
                        || rng.gen_bool(0.06)
                    {
                        "female"
                    } else {
                        "male"
                    },
                ),
            );
        }
        g.insert(
            laureate.clone(),
            iri(ns, "bornCountry"),
            Term::lit(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]),
        );
        for _ in 0..=usize::from(rng.gen_bool(0.25)) {
            let univ = iri(ns, format!("univ{}", rng.gen_range(0..n_univ)));
            g.insert(laureate.clone(), iri(ns, "affiliation"), univ.clone());
            g.insert(univ.clone(), ty.clone(), iri(ns, "University"));
            g.insert(
                univ.clone(),
                iri(ns, "country"),
                Term::lit(COUNTRIES[rng.gen_range(0..6)]),
            );
        }
        g.insert(
            laureate.clone(),
            iri(ns, "motivation"),
            Term::lit("for groundbreaking discoveries concerning fundamental structure"),
        );
    }
    g
}

const CARRIERS: [&str; 8] = ["AA", "DL", "UA", "WN", "B6", "AS", "NK", "F9"];

/// Airline-like graph: the converted-relational dataset. "tuples are not
/// linked to each other, and thus no paths can be derived; it lacks
/// multi-valued attributes, thus no count derivation applies; the data is
/// mostly numeric, so keyword or language attributes are not derived"
/// (Experiment 1).
pub fn airline(cfg: &RealisticConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(5));
    let mut g = Graph::new();
    let ty = Term::iri(vocab::RDF_TYPE);
    let ns = "air";
    for i in 0..cfg.scale {
        let flight = iri(ns, format!("flight{i}"));
        g.insert(flight.clone(), ty.clone(), iri(ns, "Flight"));
        let carrier = CARRIERS[rng.gen_range(0..CARRIERS.len())];
        g.insert(flight.clone(), iri(ns, "carrier"), Term::lit(carrier));
        g.insert(flight.clone(), iri(ns, "month"), Term::int(1 + (i % 12) as i64));
        g.insert(flight.clone(), iri(ns, "dayOfWeek"), Term::int(1 + (i % 7) as i64));
        // Winter months and one low-cost carrier delay far more.
        let base = if (i % 12) < 2 { 40.0 } else { 8.0 };
        let carrier_penalty = if carrier == "NK" { 25.0 } else { 0.0 };
        let dep_delay = base + carrier_penalty + rng.gen::<f64>() * 15.0;
        g.insert(flight.clone(), iri(ns, "depDelay"), Term::num(dep_delay.round()));
        g.insert(
            flight.clone(),
            iri(ns, "arrDelay"),
            Term::num((dep_delay + rng.gen::<f64>() * 10.0 - 5.0).round()),
        );
        g.insert(flight.clone(), iri(ns, "distance"), Term::int(rng.gen_range(100..3000)));
    }
    g
}

/// All six graphs, scaled relative to each other like Table 2's sizes
/// (Airline ≫ DBLP > Foodista > CEOs ≈ NASA ≈ Nobel).
pub fn all(cfg: &RealisticConfig) -> Vec<RealGraph> {
    vec![
        RealGraph {
            name: "Airline",
            graph: airline(&RealisticConfig { scale: cfg.scale * 8, ..*cfg }),
        },
        RealGraph { name: "CEOs", graph: ceos(cfg) },
        RealGraph {
            name: "DBLP",
            graph: dblp(&RealisticConfig { scale: cfg.scale * 4, ..*cfg }),
        },
        RealGraph {
            name: "Foodista",
            graph: foodista(&RealisticConfig { scale: cfg.scale * 2, ..*cfg }),
        },
        RealGraph { name: "NASA", graph: nasa(cfg) },
        RealGraph { name: "Nobel", graph: nobel(cfg) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RealisticConfig {
        RealisticConfig { scale: 200, seed: 11 }
    }

    #[test]
    fn ceos_profile_is_heterogeneous() {
        let g = ceos(&cfg());
        let ceo_ty = g.dict.id_of(&iri("ceos", "CEO")).unwrap();
        let ceos = g.nodes_of_type(ceo_ty);
        assert_eq!(ceos.len(), 200);
        // Multi-valued nationality exists.
        let nat = g.dict.id_of(&iri("ceos", "nationality")).unwrap();
        let multi = ceos.iter().filter(|&&c| g.objects(c, nat).count() > 1).count();
        assert!(multi > 10, "only {multi} multi-nationality CEOs");
        // Some CEOs miss gender.
        let gender = g.dict.id_of(&iri("ceos", "gender")).unwrap();
        let missing = ceos.iter().filter(|&&c| g.objects(c, gender).count() == 0).count();
        assert!(missing > 10);
    }

    #[test]
    fn ceos_has_networth_outlier_for_angola() {
        let g = ceos(&RealisticConfig { scale: 500, seed: 3 });
        let ceo_ty = g.dict.id_of(&iri("ceos", "CEO")).unwrap();
        let nat = g.dict.id_of(&iri("ceos", "nationality")).unwrap();
        let nw = g.dict.id_of(&iri("ceos", "netWorth")).unwrap();
        let angola = g.dict.id_of(&Term::lit("Angola")).unwrap();
        let mut angolan = Vec::new();
        let mut other = Vec::new();
        for c in g.nodes_of_type(ceo_ty) {
            let worth: f64 =
                g.objects(c, nw).filter_map(|o| g.dict.term(o).numeric_value()).sum();
            if g.objects(c, nat).any(|n| n == angola) {
                angolan.push(worth);
            } else {
                other.push(worth);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(avg(&angolan) > 5.0 * avg(&other), "Angolan outlier missing");
    }

    #[test]
    fn nasa_has_launch_site_skew() {
        let g = nasa(&cfg());
        let site = g.dict.id_of(&iri("nasa", "launchsite")).unwrap();
        let mut counts = std::collections::HashMap::new();
        for &(_, o) in g.property_pairs(site) {
            *counts.entry(g.dict.display(o)).or_insert(0usize) += 1;
        }
        let plesetsk = counts.get("Plesetsk").copied().unwrap_or(0);
        let wallops = counts.get("Wallops").copied().unwrap_or(0);
        assert!(plesetsk > 2 * wallops, "Plesetsk {plesetsk} vs Wallops {wallops}");
    }

    #[test]
    fn airline_is_flat_and_single_valued() {
        let g = airline(&cfg());
        // No property of a flight points to another subject → no paths.
        let flight_ty_id = g.dict.id_of(&iri("air", "Flight")).unwrap();
        let rdf_type = g.rdf_type_id();
        for t in g.triples().to_vec() {
            if t.p == rdf_type {
                continue;
            }
            let object_is_subject = !g.outgoing(t.o).is_empty();
            assert!(!object_is_subject, "airline tuples must not link");
        }
        assert_eq!(g.nodes_of_type(flight_ty_id).len(), 200);
    }

    #[test]
    fn all_six_generated() {
        let graphs = all(&RealisticConfig { scale: 50, seed: 1 });
        assert_eq!(graphs.len(), 6);
        let names: Vec<_> = graphs.iter().map(|g| g.name).collect();
        assert_eq!(names, vec!["Airline", "CEOs", "DBLP", "Foodista", "NASA", "Nobel"]);
        // Airline is the largest, mirroring Table 2's ordering.
        let airline_size = graphs[0].graph.len();
        for g in &graphs[4..] {
            assert!(airline_size > g.graph.len());
        }
    }

    #[test]
    fn foodista_recipes_have_multi_valued_ingredients() {
        let g = foodista(&cfg());
        let ing = g.dict.id_of(&iri("food", "ingredient")).unwrap();
        let recipe_ty = g.dict.id_of(&iri("food", "Recipe")).unwrap();
        let multi = g
            .nodes_of_type(recipe_ty)
            .iter()
            .filter(|&&r| g.objects(r, ing).count() > 1)
            .count();
        assert_eq!(multi, 200, "every recipe has ≥ 2 ingredients");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = nobel(&cfg());
        let b = nobel(&cfg());
        assert_eq!(a.len(), b.len());
    }
}
