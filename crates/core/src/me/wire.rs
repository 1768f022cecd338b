//! The **wire layer** of the Migration Enclave: how the messages sent
//! to one destination link are sealed.
//!
//! This module owns the `TRANSFER` frame: one channel-sealed message,
//! built by `seal_cell`. Every message a source ME sends to a
//! destination ME travels sealed on its own, one destination ECALL per
//! message. Frames travel at their natural size: links deliver in send
//! order, so the channel's sequence numbers need no help from the frame
//! layout.

use crate::error::MigError;
use crate::msgs::MeToMe;
use crate::secure_channel::SecureChannel;
use crate::transfer::chunker::ChunkStream;
use mig_crypto::gcm::TAG_LEN;
use sgx_sim::wire::WireWriter;

/// One message of a send burst, encoded where it is sealed.
pub(crate) enum Cell<'a> {
    /// A whole message: a single-shot `Transfer`, a `ResumeRequest` or
    /// an announcement.
    Msg(&'a MeToMe),
    /// Chunk `idx` of a stream, encoded from the stream's shared buffer.
    Chunk(&'a ChunkStream, u32),
}

impl Cell<'_> {
    fn len(&self) -> usize {
        match self {
            Cell::Msg(msg) => msg.encoded_len(),
            Cell::Chunk(stream, idx) => MeToMe::chunk_len(stream.chunk(*idx).0.len()),
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        match self {
            Cell::Msg(msg) => msg.encode(w),
            Cell::Chunk(stream, idx) => {
                let (payload, mac) = stream.chunk(*idx);
                MeToMe::write_chunk(w, &stream.nonce(), *idx, payload, &mac);
            }
        }
    }
}

/// Seals `cell` into the body of one `TRANSFER` frame, allocated at its
/// final size: the message is encoded straight into the buffer and
/// sealed where it lies, so a chunk is copied once, from the stream into
/// the frame.
///
/// # Errors
///
/// [`MigError::Transfer`] if the sealed message exceeds the wire's `u32`
/// length.
pub(crate) fn seal_cell(channel: &mut SecureChannel, cell: &Cell<'_>) -> Result<Vec<u8>, MigError> {
    let len = cell.len();
    u32::try_from(len + TAG_LEN).map_err(|_| MigError::Transfer("message exceeds wire limit"))?;
    let mut w = WireWriter::with_capacity(len + TAG_LEN);
    cell.encode(&mut w);
    let mut sealed = w.finish();
    channel.seal_in_place(&mut sealed, 0);
    Ok(sealed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_cells_match_sequential_seals_and_open_in_order() {
        use crate::secure_channel::ChannelRole;
        let msgs: Vec<MeToMe> = (0..2u8)
            .map(|i| MeToMe::ChunkAck {
                nonce: [i; 16],
                upto: u32::from(i),
            })
            .collect();
        let stream = ChunkStream::new([9; 16], 4096, vec![3u8; 10_000]);
        let mut cells: Vec<Cell<'_>> = msgs.iter().map(Cell::Msg).collect();
        cells.extend((0..stream.n_chunks()).map(|idx| Cell::Chunk(&stream, idx)));
        let plaintexts: Vec<Vec<u8>> = cells
            .iter()
            .map(|cell| {
                let mut w = WireWriter::new();
                cell.encode(&mut w);
                w.finish()
            })
            .collect();
        // Oracle: each message sealed from its encoding, in order.
        let mut oracle = SecureChannel::new([9; 16], ChannelRole::Initiator);
        let mut sender = SecureChannel::new([9; 16], ChannelRole::Initiator);
        let mut receiver = SecureChannel::new([9; 16], ChannelRole::Responder);
        for (cell, plaintext) in cells.iter().zip(&plaintexts) {
            let sealed = seal_cell(&mut sender, cell).unwrap();
            assert_eq!(sealed, oracle.seal(plaintext));
            assert_eq!(sealed.capacity(), sealed.len(), "allocated once");
            // The receiver opens the messages back out in seal order.
            assert_eq!(&receiver.open(&sealed).unwrap(), plaintext);
        }
        assert_eq!(MeToMe::from_bytes(&plaintexts[1]).unwrap(), msgs[1]);
    }
}
