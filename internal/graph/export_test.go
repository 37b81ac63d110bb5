package graph

// Reference readers for the external graph_test package.
var (
	ReadMETISSerial        = readMETISSerial
	ReadMatrixMarketSerial = readMatrixMarketSerial
)
