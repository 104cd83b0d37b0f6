// Package dll holds the parts of the PCI Express Data Link Layer the
// simulator uses.
//
// The paper's §3 model folds the data link layer into a fixed bandwidth
// overhead: sequence numbers, LCRC and Ack/Nak/UpdateFC DLLPs never
// appear as events, and the simulator does the same. What remains here
// is:
//
//   - flow-control credit accounting per pool (Posted, Non-Posted,
//     Completion) in header and data credit units: the transmitter's
//     view (TxCredits) and the receiver's ledger (RxCredits), which
//     internal/rc's switch ports use to stall a TLP until the far side
//     drains buffer space;
//   - WireBytes, the on-wire size of one DLLP, which internal/rc
//     charges for the Nak that starts a replay.
package dll

// WireBytes is the size of every DLLP on the wire: 2 B framing + 4 B
// payload + 2 B CRC-16.
const WireBytes = 8
