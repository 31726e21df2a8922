//! Fixture: the piece loop checks the budget before every piece.

pub fn exact_width(
    pieces: &[Piece],
    budget: &Budget,
    mut sweep: impl FnMut(&Piece) -> Result<usize, DecompError>,
) -> Result<usize, DecompError> {
    let mut width = 1;
    for piece in pieces {
        budget.check()?;
        width = width.max(sweep(piece)?);
    }
    Ok(width)
}
