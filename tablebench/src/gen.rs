//! Seeded inputs: the GridPocket meter dataset and the Table I queries.
//!
//! The generator lives in the benchmark so that a change to the program can
//! never change what the benchmark feeds it: the store and the session see
//! only these bytes and this SQL.

use bytes::Bytes;

/// Objects in the dataset.
pub const OBJECTS: usize = 8;
/// Readings per object.
pub const ROWS_PER_OBJECT: usize = 24_000;
/// Meters in the fleet.
pub const METERS: usize = 1_000;
/// Hours between two readings of one meter.
pub const INTERVAL_HOURS: i64 = 6;
/// Column list, in file order.
pub const SCHEMA: &str = "vid,date,index,sumHC,sumHP,lat,long,city,state,region";

/// SplitMix64: small, seedable, and good enough for synthetic data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Child seed for one consumer of the workload seed.
pub fn derive(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// `(city, state, region, lat, long)`: Rotterdam feeds Showgraphcons and
/// Showday, the FRA cities ShowGraphHCHP, the `U%` states ShowPiemonth.
const CITIES: [(&str, &str, &str, f64, f64); 10] = [
    ("Rotterdam", "NLD", "South Holland", 51.92, 4.47),
    ("Utrecht", "NLD", "Utrecht", 52.09, 5.12),
    ("Paris", "FRA", "Ile-de-France", 48.85, 2.35),
    ("Nice", "FRA", "PACA", 43.70, 7.27),
    ("Lyon", "FRA", "Auvergne-Rhone-Alpes", 45.76, 4.83),
    ("Kyiv", "UKR", "Kyiv Oblast", 50.45, 30.52),
    ("Austin", "USA", "Texas", 30.27, -97.74),
    ("Berlin", "DEU", "Brandenburg", 52.52, 13.40),
    ("Madrid", "ESP", "Comunidad de Madrid", 40.42, -3.70),
    ("Milan", "ITA", "Lombardy", 45.46, 9.19),
];

/// Civil date of a day count since 1970-01-01 (proleptic Gregorian).
fn civil(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    (yoe + era * 400 + i64::from(month <= 2), month, day)
}

/// Days from 1970-01-01 to 2015-01-01, where the readings start.
const START_DAY: i64 = 16_436;

/// The dataset: `OBJECTS` CSV objects with a header row, readings
/// time-major (every meter at t0, then t1, ...), as they land in ingestion.
pub fn dataset(seed: u64) -> Vec<(String, Bytes)> {
    let mut rng = Rng::new(derive(seed, 1));
    struct Meter {
        city: usize,
        index: f64,
        hc: f64,
        hp: f64,
        rate: f64,
    }
    // Every city gets the same number of meters, in a seeded order: the
    // seed changes which meters and what they read, not how selective a
    // query's city or state predicate is.
    let mut cities: Vec<usize> = (0..METERS).map(|i| i % CITIES.len()).collect();
    shuffle(&mut cities, &mut rng);
    let mut meters: Vec<Meter> = cities
        .into_iter()
        .map(|city| Meter {
            city,
            index: rng.range(0.0, 5_000.0),
            hc: 0.0,
            hp: 0.0,
            rate: rng.range(0.05, 0.6),
        })
        .collect();
    let mut step = 0i64;
    let mut cursor = 0usize;
    (0..OBJECTS)
        .map(|part| {
            let mut out = String::with_capacity(ROWS_PER_OBJECT * 96);
            out.push_str(SCHEMA);
            out.push('\n');
            for _ in 0..ROWS_PER_OBJECT {
                if cursor == METERS {
                    cursor = 0;
                    step += 1;
                }
                let hours = step * INTERVAL_HOURS;
                let hour = hours % 24;
                let (y, mo, d) = civil(START_DAY + hours / 24);
                let m = &mut meters[cursor];
                let delta = m.rate * rng.range(0.2, 1.8);
                m.index += delta;
                // Off-peak ("heures creuses") runs 22:00-06:00.
                if !(6..22).contains(&hour) {
                    m.hc += delta;
                } else {
                    m.hp += delta;
                }
                let (city, state, region, lat, long) = CITIES[m.city];
                out.push_str(&format!(
                    "M{cursor:05},{y:04}-{mo:02}-{d:02} {hour:02}:00:00,{:.2},{:.2},{:.2},\
                     {lat:.2},{long:.2},{city},{state},{region}\n",
                    m.index, m.hc, m.hp
                ));
                cursor += 1;
            }
            (format!("part-{part:02}.csv"), Bytes::from(out))
        })
        .collect()
}

/// The seven Table I queries, `(name, sql)`.
pub const QUERIES: [(&str, &str); 7] = [
    (
        "ShowMapCons",
        "SELECT vid, sum(index) as max, first_value(lat) as lat, \
         first_value(long) as long, first_value(state) as state \
         FROM largeMeter WHERE date LIKE '2015-01%' \
         GROUP BY SUBSTRING(date, 0, 7), vid ORDER BY SUBSTRING(date, 0, 7), vid",
    ),
    (
        "ShowMapMeter",
        "SELECT vid, sum(index) as max, first_value(city) as city, \
         first_value(lat) as lat, first_value(long) as long, first_value(state) as state \
         FROM largeMeter WHERE date LIKE '2015-01%' \
         GROUP BY SUBSTRING(date, 0, 7), vid ORDER BY SUBSTRING(date, 0, 7), vid",
    ),
    (
        "ShowMapHeatmonth",
        "SELECT SUBSTRING(date, 0, 10) as sDate, sum(index) as max, \
         first_value(lat) as lat, first_value(long) as long \
         FROM largeMeter WHERE date LIKE '2015-01%' \
         GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid",
    ),
    (
        "Showgraphcons",
        "SELECT SUBSTRING(date, 0, 10) as sDate, sum(index) as max, vid \
         FROM largeMeter WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01-%' \
         GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid",
    ),
    (
        "ShowPiemonth",
        "SELECT SUBSTRING(date, 0, 10) as sDate, state as vid, sum(index) as max \
         FROM largeMeter WHERE state LIKE 'U%' AND date LIKE '2015-01-%' \
         GROUP BY SUBSTRING(date, 0, 10), state ORDER BY SUBSTRING(date, 0, 10), state",
    ),
    (
        "ShowGraphHCHP",
        "SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, \
         max(sumHC) as maxHC, min(sumHP) as minHP, max(sumHP) as maxHP \
         FROM largeMeter WHERE state LIKE 'FRA' AND date LIKE '2015-01-%' \
         GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid",
    ),
    (
        "Showday",
        "SELECT SUBSTRING(date, 0, 13) as sDate, sum(index) as max, vid \
         FROM largeMeter WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01-%' \
         GROUP BY SUBSTRING(date, 0, 13), vid ORDER BY SUBSTRING(date, 0, 13), vid",
    ),
];

/// Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The order the closed loop cycles through the queries.
pub fn query_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..QUERIES.len()).collect();
    shuffle(&mut order, &mut Rng::new(derive(seed, 2)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil(START_DAY), (2015, 1, 1));
        assert_eq!(civil(START_DAY + 31), (2015, 2, 1));
        assert_eq!(civil(START_DAY + 59), (2015, 3, 1));
    }
}
