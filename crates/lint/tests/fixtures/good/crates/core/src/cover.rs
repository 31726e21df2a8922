//! Fixture: the cover search ticks per edge tried; its unbudgeted
//! neighbour owes the rule nothing.

pub fn find_connected_cover_budgeted(
    edges: &[u64],
    bag: u64,
    budget: &Budget,
) -> Result<Option<usize>, DecompError> {
    for (i, &e) in edges.iter().enumerate() {
        budget.tick()?;
        if e & bag == bag {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

pub fn min_cover_size(sizes: &[usize]) -> usize {
    let mut k = 0;
    while k < sizes.len() {
        k += 1;
    }
    k
}
