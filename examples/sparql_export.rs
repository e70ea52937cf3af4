//! Exporting discovered insights as SPARQL 1.1 queries.
//!
//! Section 2 of the paper: an insight "can be expressed in a language such
//! as SPARQL 1.1 … and evaluated by any RDF query engine". This example
//! finds an interesting aggregate on the Figure 1 graph and prints the
//! SPARQL query a user would run in their own triple store (Virtuoso,
//! Oxigraph, Jena, …) to reproduce it — with the per-fact pre-aggregation
//! subquery that keeps the multi-valued-dimension semantics correct.
//!
//! Run: `cargo run --release --example sparql_export`

use spade::core::sparql::{mda_to_sparql, SparqlMeasure};
use spade::core::{analysis, cfs, offline, AttrKind, Budget, Cancelled, Exec};
use spade::prelude::*;

fn main() -> Result<(), Cancelled> {
    let graph = spade::datagen::ceos_figure1();
    let config = SpadeConfig {
        min_cfs_size: 2,
        min_support: 0.4,
        max_distinct_ratio: 5.0,
        ..SpadeConfig::default()
    };

    // Steps 1–2 of the pipeline, to obtain analyzed attributes.
    // An uncancellable context: the `?`s below never fire.
    let exec = Exec::new(config.threads);
    let stats = offline::analyze_budgeted(&graph, exec.threads, &Budget::unlimited())?;
    let (derived, _) = offline::enumerate_derivations(&graph, &stats, &config, &exec)?;
    let cfs_list = cfs::select(&graph, &[cfs::CfsStrategy::TypeBased], &config, &exec)?;
    let ceo_cfs = cfs_list.iter().find(|c| c.name == "type:CEO").expect("CEO CFS");
    let a = analysis::analyze_cfs(&graph, ceo_cfs, &derived, &config);

    let attr =
        |name: &str| &a.attributes.iter().find(|x| x.def.name == name).expect("attribute").def;
    let ceo_class =
        graph.dict.id_of(&Term::iri("http://ceos.example.org/CEO")).expect("CEO class");

    // Example 3: number of CEOs by nationality, gender, company/area.
    println!("--- Example 3: count of CEOs by nationality, gender, company/area ---\n");
    println!(
        "{}\n",
        mda_to_sparql(
            &graph,
            Some(ceo_class),
            &[attr("nationality"), attr("gender"), attr("company/area")],
            SparqlMeasure::FactCount,
        )
    );

    // Variation 1: sum of netWorth by company/area.
    println!("--- Variation 1: sum(netWorth) by company/area ---\n");
    println!(
        "{}\n",
        mda_to_sparql(
            &graph,
            Some(ceo_class),
            &[attr("company/area")],
            SparqlMeasure::Measure(attr("netWorth"), AggFn::Sum),
        )
    );

    // Example 2: average age by nationality and number of companies.
    println!("--- Example 2: avg(age) by nationality, numOf(company) ---\n");
    let num_companies = a
        .attributes
        .iter()
        .find(|x| matches!(x.def.kind, AttrKind::Count(_)) && x.def.name.contains("company"))
        .expect("count derivation");
    println!(
        "{}",
        mda_to_sparql(
            &graph,
            Some(ceo_class),
            &[attr("nationality"), &num_companies.def],
            SparqlMeasure::Measure(attr("age"), AggFn::Avg),
        )
    );
    println!("\nNote the inner '{{ SELECT ?cf … GROUP BY ?cf }}' subqueries: they");
    println!("pre-aggregate per fact, so multi-valued dimensions cannot double-count");
    println!("(the Section 4.2 pitfall).");
    Ok(())
}
