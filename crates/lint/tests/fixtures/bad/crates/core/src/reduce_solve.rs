//! Fixture: the piece loop takes the request's budget and never checks
//! it — a deadline that expires between two pieces goes unnoticed.

pub fn exact_width(
    pieces: &[Piece],
    _unchecked: &Budget,
    mut sweep: impl FnMut(&Piece) -> Result<usize, DecompError>,
) -> Result<usize, DecompError> {
    let mut width = 1;
    for piece in pieces {
        width = width.max(sweep(piece)?);
    }
    Ok(width)
}
