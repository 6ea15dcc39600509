include Hashtbl.Make (struct
  type t = Host.Host_id.t * int

  let equal (s, r) (s', r') = Host.Host_id.equal s s' && Int.equal r r'
  let hash (s, r) = (Host.Host_id.hash s * 65599) + r
end)
