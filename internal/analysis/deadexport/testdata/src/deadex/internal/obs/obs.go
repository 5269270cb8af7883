package obs

const KeyRows = "rows" // a catalog entry: obscatalog judges it

const Budget = 10 // want `exported obs.Budget has no caller`
