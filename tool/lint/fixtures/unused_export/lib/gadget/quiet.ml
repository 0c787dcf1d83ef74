let debug_dump () = ""
let spare = 0
