//! Deterministic synthetic workload generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GIVEN: &[&str] = &[
    "John", "Pat", "Tim", "Jill", "Ana", "Wei", "Ravi", "Maya", "Sam", "Lena", "Igor", "Noor",
    "Kofi", "Rosa", "Hugo", "Mei", "Omar", "Tara", "Ivan", "Yuki",
];
const SURNAMES: &[&str] = &[
    "Doe", "Smith", "Dickens", "Lu", "Garcia", "Chen", "Patel", "Okafor", "Kim", "Novak", "Hassan",
    "Silva", "Mori", "Bauer", "Rossi", "Dubois", "Larsen", "Kovacs", "Adeyemi", "Nakamura",
];
const ROOMS: &[&str] = &["2B", "2C", "3A", "3F", "4D", "5A"];

/// One synthetic subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Person {
    /// Directory common name, `Given Surname` (unique).
    pub cn: String,
    pub sn: String,
    /// 4-digit extension within a switch's range.
    pub extension: String,
    pub room: String,
}

/// Deterministic generator (fixed seed → identical workloads across runs).
pub struct Workload {
    rng: StdRng,
    next_serial: u32,
}

impl Workload {
    pub fn new(seed: u64) -> Workload {
        Workload {
            rng: StdRng::seed_from_u64(seed),
            next_serial: 0,
        }
    }

    /// Generate `n` distinct people with extensions spread over
    /// `n_prefixes` switch ranges (prefixes `1`..=`n_prefixes`).
    pub fn people(&mut self, n: usize, n_prefixes: usize) -> Vec<Person> {
        assert!(n <= 8000, "extension space is 8 prefixes × 1000");
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let serial = self.next_serial;
            self.next_serial += 1;
            let given = GIVEN[self.rng.gen_range(0..GIVEN.len())];
            let surname = SURNAMES[self.rng.gen_range(0..SURNAMES.len())];
            // Serial suffix keeps names unique without losing realism.
            let cn = format!("{given} {surname} {serial:04}");
            let prefix = (serial as usize % n_prefixes.max(1)) + 1;
            let ext = format!("{prefix}{:03}", serial / n_prefixes.max(1) as u32 % 1000);
            out.push(Person {
                cn,
                sn: surname.to_string(),
                extension: ext,
                room: format!(
                    "{}-{:03}",
                    ROOMS[self.rng.gen_range(0..ROOMS.len())],
                    self.rng.gen_range(1..400)
                ),
            });
        }
        out
    }

    /// PBX-side name form (`Surname, Given …`).
    pub fn pbx_name(p: &Person) -> String {
        match p.cn.split_once(' ') {
            Some((given, rest)) => format!("{rest}, {given}"),
            None => p.cn.clone(),
        }
    }

    /// Bernoulli draw (e.g. "is this update a DDU?").
    pub fn flip(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

/// Populate a rig's directory (through the WBA path) with `people`.
pub fn populate(rig: &crate::Rig, people: &[Person]) {
    let wba = rig.system.wba();
    for p in people {
        wba.add_person_with_extension(&p.cn, &p.sn, &p.extension, &p.room)
            .expect("populate");
    }
    rig.system.settle();
}

/// Load `people` directly onto their owning switches (pre-existing device
/// data for the initial-load claims in `tests/paper_claims.rs`). Uses the
/// Metacomm channel so no DDU events fire.
pub fn preload_devices(rig: &crate::Rig, people: &[Person]) {
    for p in people {
        let store = rig.switch_for(&p.extension);
        store
            .add(
                pbx::Record::from_pairs([
                    ("Extension", p.extension.as_str()),
                    ("Name", &Workload::pbx_name(p)),
                    ("Room", p.room.as_str()),
                    ("CoveragePath", "1"),
                ]),
                pbx::Channel::Metacomm,
            )
            .expect("preload");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_unique() {
        let mut a = Workload::new(7);
        let mut b = Workload::new(7);
        let pa = a.people(200, 3);
        let pb = b.people(200, 3);
        assert_eq!(pa, pb, "same seed, same people");
        let mut cns: Vec<&str> = pa.iter().map(|p| p.cn.as_str()).collect();
        cns.sort();
        cns.dedup();
        assert_eq!(cns.len(), 200, "names unique");
        let mut exts: Vec<&str> = pa.iter().map(|p| p.extension.as_str()).collect();
        exts.sort();
        exts.dedup();
        assert_eq!(exts.len(), 200, "extensions unique");
    }

    #[test]
    fn extensions_respect_prefixes() {
        let mut w = Workload::new(1);
        for p in w.people(50, 2) {
            assert!(p.extension.starts_with('1') || p.extension.starts_with('2'));
            assert_eq!(p.extension.len(), 4);
        }
    }

    #[test]
    fn pbx_name_form() {
        let p = Person {
            cn: "John Doe 0001".into(),
            sn: "Doe".into(),
            extension: "1000".into(),
            room: "2B-1".into(),
        };
        assert_eq!(Workload::pbx_name(&p), "Doe 0001, John");
    }
}
