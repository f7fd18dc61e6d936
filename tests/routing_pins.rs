//! The Global Routing output, pinned bit for bit.
//!
//! One FNV-1a fingerprint per (geography, perturbation, routing config)
//! over everything `GlobalRouting::compute_all` returns: pairs in sorted
//! key order, per pair the path count, per path every node id, the weight
//! bits, `computed_at` and `last_resort`. The expected values were recorded
//! at PR 15's parent commit (the `BTreeMap`-probing `compute_all_mesh`): a
//! change here is a change of routing behaviour, not of plumbing.

use livenet::brain::{GlobalRouting, RoutingConfig};
use livenet::prelude::*;

mod common;
use common::Fnv;

const NOW: SimTime = SimTime::from_secs(600);

fn fingerprint(topology: &Topology, k: usize, max_hops: usize) -> u64 {
    let routing = GlobalRouting::new(RoutingConfig {
        k,
        max_hops,
        ..RoutingConfig::default()
    });
    let mut entries: Vec<_> = routing.compute_all(topology, NOW).into_iter().collect();
    entries.sort_by_key(|&(pair, _)| pair);
    let mut h = Fnv::new();
    h.word(entries.len() as u64);
    for ((src, dst), paths) in &entries {
        h.word(src.raw());
        h.word(dst.raw());
        h.word(paths.len() as u64);
        for p in paths {
            h.word(p.nodes.len() as u64);
            for n in &p.nodes {
                h.word(n.raw());
            }
            h.word(p.weight.to_bits());
            h.word(p.computed_at.as_nanos());
            h.word(u64::from(p.last_resort));
        }
    }
    h.0
}

const PERTURBATIONS: [&str; 5] = [
    "healthy",
    "one node down",
    "one duplex link down",
    "one node at 0.85, another at 0.5",
    "every 11th link at 0.9, every 13th lossy, every 97th down",
];

fn perturb(t: &mut Topology, which: usize) {
    let ids: Vec<NodeId> = t.routable_node_ids().collect();
    match which {
        0 => {}
        1 => t.set_node_up(ids[2], false),
        2 => t.set_duplex_up(ids[0], ids[1], false),
        3 => {
            t.node_mut(ids[3]).expect("routable").utilization = 0.85;
            t.node_mut(ids[5]).expect("routable").utilization = 0.5;
        }
        _ => {
            let links: Vec<(NodeId, NodeId)> = t.links().map(|(f, to, _)| (f, to)).collect();
            for (i, &(from, to)) in links.iter().enumerate() {
                let l = t.link_mut(from, to).expect("listed");
                if i % 11 == 0 {
                    l.utilization = 0.9;
                }
                if i % 13 == 0 {
                    l.loss = 0.001;
                }
                if i % 97 == 0 {
                    t.set_link_up(from, to, false);
                }
            }
        }
    }
}

/// (`k`, `max_hops`): the paper's setting and the two ablations that stay
/// on the direct enumeration.
const CONFIGS: [(usize, usize); 3] = [(3, 3), (1, 3), (3, 2)];

fn pins(geo: &GeoConfig) -> [[u64; 3]; 5] {
    let healthy = GeoTopology::generate(geo).topology;
    let mut out = [[0; 3]; 5];
    for (which, row) in out.iter_mut().enumerate() {
        let mut t = healthy.clone();
        perturb(&mut t, which);
        for (pin, &(k, max_hops)) in row.iter_mut().zip(&CONFIGS) {
            *pin = fingerprint(&t, k, max_hops);
        }
    }
    out
}

fn check(geo: &GeoConfig, expected: [[u64; 3]; 5]) {
    let actual = pins(geo);
    for (which, name) in PERTURBATIONS.iter().enumerate() {
        for (c, &(k, max_hops)) in CONFIGS.iter().enumerate() {
            assert_eq!(
                actual[which][c], expected[which][c],
                "{name}, k = {k}, max_hops = {max_hops}; all pins now: {actual:#?}"
            );
        }
    }
}

#[test]
fn pin_tiny() {
    check(
        &GeoConfig::tiny(3),
        [
            [
                8_402_913_174_517_987_760,
                17_261_695_922_243_917_481,
                2_469_802_154_810_290_581,
            ],
            [
                3_095_166_683_621_428_943,
                17_540_967_194_492_772_057,
                13_933_515_423_318_038_585,
            ],
            [
                16_833_377_231_747_506_056,
                17_261_695_922_243_917_481,
                7_544_329_010_175_805_797,
            ],
            [
                8_007_194_494_273_843_929,
                3_647_976_637_065_799_109,
                3_396_193_826_750_450_821,
            ],
            [
                10_062_352_184_485_362_064,
                8_119_963_751_215_341_519,
                521_165_216_193_721_378,
            ],
        ],
    );
}

#[test]
fn pin_paper_scale() {
    check(
        &GeoConfig::paper_scale(20_221_122),
        [
            [
                11_783_703_858_986_426_275,
                14_343_899_105_250_155_721,
                2_746_739_118_012_878_466,
            ],
            [
                1_317_257_712_123_574_065,
                7_257_776_362_873_397_868,
                5_800_569_171_520_712_568,
            ],
            [
                17_403_238_858_231_014_246,
                18_109_051_735_529_666_041,
                4_363_303_522_422_414_002,
            ],
            [
                14_108_469_571_108_378_842,
                8_489_679_406_656_401_544,
                14_982_359_081_173_942_318,
            ],
            [
                17_237_447_238_007_769_252,
                7_271_140_853_099_242_200,
                13_441_852_715_511_314_921,
            ],
        ],
    );
}

#[test]
fn pin_smoke_fleet_geography() {
    check(
        &FleetConfig::smoke(7).geo,
        [
            [
                14_873_835_798_854_493_315,
                2_788_347_027_113_633_315,
                10_574_857_707_396_326_560,
            ],
            [
                16_307_281_935_539_080_487,
                11_408_192_462_967_433_562,
                8_098_868_326_728_729_238,
            ],
            [
                4_638_431_197_050_991_904,
                129_421_701_154_779_691,
                872_247_762_895_316_100,
            ],
            [
                16_409_744_069_589_981_561,
                12_205_358_864_856_090_899,
                10_372_599_156_706_698_676,
            ],
            [
                8_539_213_809_743_352_338,
                18_045_728_971_119_045_594,
                16_538_340_036_121_849_121,
            ],
        ],
    );
}
