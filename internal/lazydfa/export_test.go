package lazydfa

// CapBytes exposes capBytes to the external test package.
var CapBytes = capBytes
