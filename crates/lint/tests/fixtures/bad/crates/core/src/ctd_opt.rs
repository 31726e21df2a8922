//! Fixture: a preference DP whose wave loop never looks at its budget.

pub fn best_on_budgeted(frontier: &mut Vec<u32>, budget: &Budget) -> usize {
    budget.check();
    let mut waves = 0;
    while let Some(_block) = frontier.pop() {
        waves += 1;
    }
    waves
}
