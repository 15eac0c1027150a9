package mcode

// ConstValue exposes constValue to the external tests.
var ConstValue = constValue
