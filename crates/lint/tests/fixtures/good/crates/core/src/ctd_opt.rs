//! Fixture: the preference DP ticks once per block it evaluates.

pub fn best_on_budgeted(frontier: &mut Vec<u32>, budget: &Budget) -> Result<usize, DecompError> {
    let mut waves = 0;
    while let Some(_block) = frontier.pop() {
        budget.tick()?;
        waves += 1;
    }
    Ok(waves)
}
