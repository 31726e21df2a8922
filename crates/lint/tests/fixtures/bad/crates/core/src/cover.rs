//! Fixture: a cover search that takes a budget and drops it on the floor.

pub fn find_connected_cover_budgeted(edges: &[u64], bag: u64, _unused: &Budget) -> Option<usize> {
    edges.iter().position(|&e| e & bag == bag)
}
