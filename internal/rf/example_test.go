package rf_test

import (
	"fmt"

	"repro/internal/rf"
	"repro/internal/sig"
)

// Compose the paper's homodyne transmitter with typical impairments.
func ExampleNewTransmitter() {
	pa, err := rf.NewRappPA(1, 1.0, 2)
	if err != nil {
		panic(err)
	}
	tx, err := rf.NewTransmitter(rf.TxConfig{
		Fc: 1e9,
		IQ: rf.FromImbalanceDB(0.5, 3, 0),
		PA: pa,
	}, &sig.ComplexTone{Amp: 0.3, Freq: 5e6})
	if err != nil {
		panic(err)
	}
	fmt.Println("carrier:", tx.Fc())
	fmt.Printf("IRR: %.1f dB\n", rf.FromImbalanceDB(0.5, 3, 0).ImageRejectionDB())
	// Output:
	// carrier: 1e+09
	// IRR: 28.2 dB
}
