package core

import "repro/internal/sim"

// NewProcess builds one party of p's protocol with the given input: the
// one protocol-to-constructor mapping behind the public API, the serving
// tier's live backend and the vector composition.
func NewProcess(p Params, input float64) (sim.Process, error) {
	switch p.Protocol {
	case ProtoCrash, ProtoByzTrim:
		return NewAsyncAA(p, input)
	default: // WitnessAA's Reset rejects anything but ProtoWitness
		return NewWitnessAA(p, input)
	}
}
