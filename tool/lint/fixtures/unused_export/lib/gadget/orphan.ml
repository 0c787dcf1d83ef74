type t = { count : int }

let unused x = x
let self_only x = x + 1
let count t = self_only t.count
let after_scope = 0

module Inner = struct
  let hidden = 1
end
