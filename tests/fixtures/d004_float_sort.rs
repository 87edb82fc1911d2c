//! D004 fixture: float comparator sorts without an id tie-break.

fn bad_sort(edges: &mut Vec<(f64, u32)>) {
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
}

fn bad_min(xs: &[(f64, u32)]) -> Option<&(f64, u32)> {
    xs.iter().min_by(|a, b| a.0.total_cmp(&b.0))
}

fn good_sort(edges: &mut Vec<(f64, u32)>) {
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
}

fn good_max(xs: &[(f64, u32)]) -> Option<&(f64, u32)> {
    xs.iter()
        .max_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
}

fn bad_key_sort(edges: &mut Vec<(f64, u32)>) {
    edges.sort_by_key(|e| e.0.to_bits());
}

fn bad_key_min(xs: &[(f64, u32)]) -> Option<&(f64, u32)> {
    xs.iter().min_by_key(|e| (e.1 as f64).to_bits() as u64)
}

fn good_key_sort(edges: &mut Vec<(f64, u32)>) {
    edges.sort_by_key(|e| (e.0.to_bits(), e.1));
}

fn good_key_int(edges: &mut Vec<(u32, u32)>) {
    edges.sort_by_key(|e| e.0);
}

fn good_sort_tied_below(edges: &mut Vec<(f64, u32)>) {
    edges.sort_by(|a, b| {
        let by_cost = a.0.total_cmp(&b.0);
        by_cost.then(a.1.cmp(&b.1))
    });
}

fn bad_max_spread(offers: &[(f64, u32)]) -> Option<&(f64, u32)> {
    offers.iter().max_by(|first_offer, second_offer| {
        first_offer.0.partial_cmp(&second_offer.0).unwrap()
    })
}

#[cfg(test)]
mod tests {
    fn test_only_sort(xs: &mut [f64]) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
}

fn bad_sort_after_tests(xs: &mut [f64]) {
    xs.sort_by(|a, b| b.total_cmp(a));
}
