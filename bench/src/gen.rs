//! Seeded input generator. `--seed` is its only input, and the program
//! under test sees nothing but what comes out of here: people, trees,
//! values to write and the order operations run in.

use ldap::{Dn, Entry, Rdn};

/// Directory suffix every workload deploys under.
pub const SUFFIX: &str = "o=Bench";

/// Attributes the tree-shaped deployments index.
pub const INDEXED: &[&str] = &["objectClass", "cn", "telephoneNumber", "l", "lastUpdater"];

/// People per organizational unit in the tree-shaped workloads; also the
/// size of every scan result, so scans return exactly this many entries.
pub const PER_OU: usize = 1_000;

/// Sites (`l` values). A tree of `k * SITES` units holds `k * PER_OU`
/// people at each site.
pub const SITES: usize = 50;

const GIVEN: &[&str] = &[
    "Ana", "Bram", "Chen", "Dara", "Emre", "Femi", "Gita", "Hugo", "Ines", "Jalen", "Kofi", "Lena",
    "Mei", "Noor", "Omar", "Pia", "Quinn", "Ravi", "Sana", "Tomas", "Uma", "Viktor", "Wei",
    "Ximena", "Yuki", "Zane",
];
const SURNAMES: &[&str] = &[
    "Adeyemi", "Bauer", "Castillo", "Dubois", "Eriksen", "Fontaine", "Garcia", "Hassan", "Ivanov",
    "Jensen", "Kovacs", "Larsen", "Mori", "Novak", "Okafor", "Patel", "Quispe", "Rossi", "Silva",
    "Tanaka", "Ulloa", "Varga", "Weber", "Xu", "Yilmaz", "Zhou",
];
const WINGS: &[&str] = &["1A", "1C", "2B", "2D", "3A", "3F", "4D", "5A"];
pub const COS: &[&str] = &["standard", "executive", "basic", "premium"];

/// splitmix64: small, fast, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt`) of one seed. Seed and
    /// salt each go through the output function first: a state of
    /// `seed + salt * increment` would make the streams of one seed the same
    /// sequence, shifted by the difference of their salts.
    pub fn stream(seed: u64, salt: u64) -> Rng {
        Rng(Rng(seed).next_u64() ^ Rng(salt).next_u64().rotate_left(32))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` is far below 2^32 everywhere it is used,
    /// so the modulo bias is below 2^-32.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, used for op-stream and search-stream digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn mix(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One generated subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Person {
    pub given: String,
    pub surname: String,
    /// The surname a rename toggles to (never equal to `surname`).
    pub alt_surname: String,
    /// Unique serial, zero-padded into the common name.
    pub serial: usize,
    pub room: String,
    /// Index into the site list (`l=site-NN`).
    pub site: usize,
}

impl Person {
    pub fn cn_with(&self, surname: &str) -> String {
        format!("{} {} {:06}", self.given, surname, self.serial)
    }

    pub fn cn(&self) -> String {
        self.cn_with(&self.surname)
    }

    /// Unique ten-digit number for tree-shaped workloads.
    pub fn phone(&self) -> String {
        format!(
            "+1 908 {:03} {:04}",
            200 + self.serial / 10_000,
            self.serial % 10_000
        )
    }

    /// Four-digit extension on one of `switches` PBXes (prefix `1`..), for
    /// the device workloads: `serial` must stay below `1000 * switches`.
    pub fn extension(&self, switches: usize) -> String {
        format!(
            "{}{:03}",
            self.serial % switches + 1,
            self.serial / switches
        )
    }

    /// The PBX-side and platform-side name form, `Surname NNN, Given`.
    pub fn device_name(&self) -> String {
        format!("{} {:06}, {}", self.surname, self.serial, self.given)
    }
}

pub fn site_name(site: usize) -> String {
    format!("site-{site:02}")
}

pub fn unit_name(unit: usize) -> String {
    format!("dept-{unit:03}")
}

pub fn room(rng: &mut Rng) -> String {
    format!("{}-{:03}", rng.pick(WINGS), 1 + rng.below(399))
}

/// `n` people with serials `0..n`. Sites rotate with the serial, so every
/// site holds the same number of people whenever `SITES` divides `n`.
pub fn people(seed: u64, n: usize) -> Vec<Person> {
    let mut rng = Rng::stream(seed, 1);
    (0..n)
        .map(|serial| {
            let s = rng.below(SURNAMES.len());
            let alt = (s + 1 + rng.below(SURNAMES.len() - 1)) % SURNAMES.len();
            Person {
                given: rng.pick(GIVEN).to_string(),
                surname: SURNAMES[s].to_string(),
                alt_surname: SURNAMES[alt].to_string(),
                serial,
                room: room(&mut rng),
                site: serial % SITES,
            }
        })
        .collect()
}

pub fn suffix() -> Dn {
    Dn::parse(SUFFIX).expect("suffix parses")
}

/// The suffix entry, for a bare DIT (a deployment adds its own).
pub fn suffix_entry() -> Entry {
    Entry::with_attrs(
        suffix(),
        [
            ("objectClass", "top"),
            ("objectClass", "organization"),
            ("o", "Bench"),
        ],
    )
}

pub fn unit_dn(unit: usize) -> Dn {
    suffix().child(Rdn::new("ou", unit_name(unit)))
}

pub fn unit_entry(unit: usize) -> Entry {
    Entry::with_attrs(
        unit_dn(unit),
        [
            ("objectClass", "top".to_string()),
            ("objectClass", "organizationalUnit".to_string()),
            ("ou", unit_name(unit)),
        ],
    )
}

/// Tree-shaped placement: person `serial` lives in unit `serial / PER_OU`.
pub fn tree_dn(p: &Person) -> Dn {
    unit_dn(p.serial / PER_OU).child(Rdn::new("cn", p.cn()))
}

pub fn tree_entry(p: &Person) -> Entry {
    Entry::with_attrs(
        tree_dn(p),
        [
            ("objectClass", "top".to_string()),
            ("objectClass", "person".to_string()),
            ("objectClass", "organizationalPerson".to_string()),
            ("cn", p.cn()),
            ("sn", p.surname.clone()),
            ("telephoneNumber", p.phone()),
            ("roomNumber", p.room.clone()),
            ("l", site_name(p.site)),
        ],
    )
}

/// Device-shaped placement: the stock lexpress mappings key people flat
/// under the suffix by common name.
pub fn flat_dn(cn: &str) -> Dn {
    suffix().child(Rdn::new("cn", cn))
}

/// A person with a station and a mailbox, as an LDAP client would add it.
pub fn device_entry(p: &Person, switches: usize, cos: &str) -> Entry {
    let ext = p.extension(switches);
    Entry::with_attrs(
        flat_dn(&p.cn()),
        [
            ("objectClass", "top".to_string()),
            ("objectClass", "person".to_string()),
            ("objectClass", "organizationalPerson".to_string()),
            ("objectClass", "definityUser".to_string()),
            ("objectClass", "messagingUser".to_string()),
            ("cn", p.cn()),
            ("sn", p.surname.clone()),
            ("definityExtension", ext.clone()),
            ("telephoneNumber", format!("+1 908 582 {ext}")),
            ("roomNumber", p.room.clone()),
            ("mpMailbox", ext),
            ("mpClassOfService", cos.to_string()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(seed: u64) -> u64 {
        let mut h = Fnv::default();
        for p in people(seed, 500) {
            h.mix(tree_entry(&p).dn().to_string().as_bytes());
            h.mix(p.room.as_bytes());
            h.mix(p.alt_surname.as_bytes());
        }
        h.0
    }

    #[test]
    fn same_seed_same_people_other_seed_other_people() {
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(43));
    }

    #[test]
    fn names_numbers_and_extensions_are_unique() {
        let ps = people(7, 4_000);
        let mut cns: Vec<String> = ps.iter().map(Person::cn).collect();
        let mut phones: Vec<String> = ps.iter().map(Person::phone).collect();
        let mut exts: Vec<String> = ps.iter().map(|p| p.extension(4)).collect();
        for v in [&mut cns, &mut phones, &mut exts] {
            v.sort();
            v.dedup();
            assert_eq!(v.len(), 4_000);
        }
        assert!(exts.iter().all(|e| e.len() == 4));
        assert!(ps.iter().all(|p| p.surname != p.alt_surname));
    }

    #[test]
    fn sites_are_balanced() {
        let ps = people(1, 2 * SITES * 10);
        for site in 0..SITES {
            assert_eq!(ps.iter().filter(|p| p.site == site).count(), 20);
        }
    }

    /// Streams of neighbouring salts are not one sequence shifted, whatever
    /// the seed: they share no value early on.
    #[test]
    fn streams_of_one_seed_do_not_overlap() {
        for seed in [0, 1, 7, 42, u64::MAX] {
            let mut seen = std::collections::HashSet::new();
            for salt in 400..416 {
                let mut rng = Rng::stream(seed, salt);
                for _ in 0..1_000 {
                    assert!(seen.insert(rng.next_u64()), "seed {seed} salt {salt}");
                }
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::stream(3, 0).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
